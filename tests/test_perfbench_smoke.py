"""Tier-1 smoke test of the benchmark in ``perfbench/``.

``perfbench/selftest.py`` runs every workload at toy size, untraced and
traced. It fails when any run reports ``correct: false`` (wrong outputs, or
``queuesim.step.calls`` other than trials x M x L in a traced run) or misses
a metric that BENCHMARK.json names.

The self-test runs in a copy of the checkout (``src/``, ``BENCHMARK.json``
and ``perfbench/`` without its ``out/``) under ``tmp_path``: the benchmark
writes ``perfbench/out/<workload>/``, and a benchmark run in the checkout
must not read files that this test wrote.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=skip)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().endswith("selftest: ok")
