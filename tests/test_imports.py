"""The run path imports no SciPy; only the verification oracles load it.
The benchmark in ``perfbench/`` finds every name of the program it uses."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

from qsf import harness, optimizer, qgauss, sfgrad
from qsf.queuesim import QueueNetwork
from qsf.rng import RngStream

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


def load_perfbench(name):
    """A module of ``perfbench/``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_perfbench_finds_every_name_it_uses():
    # The tracer patches names of the program and the workloads call
    # others; a missing one fails here with its name, where otherwise only
    # the benchmark's self-test would notice.
    tracer = load_perfbench("tracer").Tracer()
    workloads = load_perfbench("workloads")
    targets = [(qgauss, "sample_vector"), (optimizer, "sample_vector"), (qgauss, "sample_matrix"),
               (sfgrad, "sample_matrix"), (optimizer, "run_qsf"), (harness, "run_qsf"),
               (harness, "run_single_trial"), (RngStream, "exponential"),
               (QueueNetwork, "set_parameter")]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer.install(SimpleNamespace())
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is original for (owner, attr), original in zip(targets, originals))
    for name in ("trace_run", "derive_cell_stream", "OptimizerSettings"):
        assert getattr(workloads.harness, name)
    assert workloads.run_gaussian_sf is optimizer.run_gaussian_sf
    assert "vectorized" in inspect.signature(sfgrad.estimate_gradient).parameters


def test_perfbench_tracer_counts_every_value_the_estimator_draws():
    # the tracer counts the size of what sample_matrix returns, by the name
    # sfgrad calls it by: one estimate of M rows in dim 3, three full blocks
    # and a short fourth, counts M * dim values
    m, dim = 3 * sfgrad.BLOCK_ROWS + 5, 3
    tracer = load_perfbench("tracer").Tracer()
    tracer.install(SimpleNamespace())
    try:
        cfg = sfgrad.GradEstimatorConfig(q=0.5, beta=0.5, dim=dim, num_perturbations=m)
        sfgrad.estimate_gradient(lambda x: x[:, 0], np.zeros(dim), cfg, RngStream(3), vectorized=True)
    finally:
        tracer.remove()
    assert tracer.calls["qgauss.sample_matrix"] == 4
    assert tracer.values["qgauss.sample_matrix"] == m * dim
