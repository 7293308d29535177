"""Tier-1 smoke test of the benchmark in ``perfbench/``.

``perfbench/selftest.py`` runs every workload at toy size, untraced and
traced. It fails when any run reports ``correct: false`` (wrong outputs, or
``queuesim.step.calls`` other than trials x M x L in a traced run) or misses
a metric that BENCHMARK.json names.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().endswith("selftest: ok")
