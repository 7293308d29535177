"""Smoke test of the command-line scripts in ``scripts/`` at a tiny size."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


def test_run_benchmark_cell(tmp_path):
    out = tmp_path / "cell"
    stdout = run_script("run_benchmark_cell.py", "--iterations", "3", "--samples", "2",
                        "--out", str(out))
    assert stdout.startswith("q\\beta,0.25\n0.9,")
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "q,beta,trial,final_distance,diverged,boundary_stuck"
    assert len(sweep) == 1 + 2 * 20  # q in {0.9, 1.0}, 20 trials each
    for name in ("summary.csv", "summary_stderr.csv", "timings.csv"):
        assert (out / name).exists()


def test_reproduce_convergence_curve(tmp_path):
    out = tmp_path / "curves"
    stdout = run_script("reproduce_convergence_curve.py", "--iterations", "3", "--samples", "2",
                        "--out", str(out))
    for q in ("0.5", "0.9", "1", "1.5"):
        lines = (out / f"trace_q{q}_beta0.25_trial0.csv").read_text().splitlines()
        assert lines[0] == "n,distance_to_target"
        assert len(lines) == 1 + 4  # header and n = 0..M
        assert lines[1] == "0,8.0"  # from theta0 = (5, 5, 5, 5) to the target (1, 1, 1, 1)
        assert f"q={q}: distance 8.00 -> " in stdout
