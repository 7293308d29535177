"""The run path imports no SciPy; only the verification oracles load it."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import json, sys
import qsf.harness, qsf.sfgrad, qsf.cli
run_path = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import qsf.oracles
print(json.dumps({"run_path": run_path, "oracles": "scipy" in sys.modules}))
"""


def test_run_path_imports_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["run_path"] == []
    assert loaded["oracles"]
