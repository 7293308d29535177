"""Per-layer tracing of the qsf modules, done from the benchmark's side.

The tracer replaces the public functions of each module with wrappers that
count calls and record self time (a call's duration minus the durations of
the wrapped calls made inside it). Nothing inside ``src/qsf`` changes; every
patch is undone by :meth:`Tracer.remove`. A wrapper costs a few hundred
nanoseconds per call, which lands in the caller's self time; the traced
run reports that cost as ``trace.overhead_s``.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter_ns

from qsf import harness, optimizer, qgauss, queuesim, rng, sfgrad

MODULES = ("rng", "qgauss", "queuesim", "optimizer", "sfgrad", "harness")

# Every per-layer metric, in output order, with its unit. Counts are per
# round (per trial for optimizer.records); times are medians over rounds.
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "rng.random.calls": "count",
    "rng.random.ns": "ns",
    "rng.exponential.calls": "count",
    "rng.exponential.ns": "ns",
    "rng.random_array.values": "count",
    "rng.random_array.ns_per_value": "ns",
    "rng.child.calls": "count",
    "rng.child.us": "us",
    "queuesim.step.calls": "count",
    "queuesim.step.ns": "ns",
    "queuesim.set_parameter.calls": "count",
    "queuesim.set_parameter.us": "us",
    "queuesim.init.us": "us",
    "qgauss.sample_vector.calls": "count",
    "qgauss.sample_vector.us": "us",
    "qgauss.sample_matrix.values": "count",
    "qgauss.sample_matrix.ns_per_value": "ns",
    "optimizer.run_qsf.calls": "count",
    "optimizer.block.us": "us",
    "optimizer.records": "count",
    "sfgrad.estimate_gradient.calls": "count",
    "sfgrad.estimate_gradient.self_s": "s",
    "sfgrad.objective.s": "s",
    "harness.run_single_trial.self_us": "us",
    "harness.run_experiment.self_s": "s",
    "harness.write.ms": "ms",
    **{f"{m}.self_s": "s" for m in MODULES},
    "trace.overhead_s": "s",
}


class Tracer:
    """Counters for one traced round; install before the round, remove after."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.values = Counter()  # work items per layer, e.g. uniforms drawn
        self._stack = [0]
        self._undo = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` wrapped to record calls and self time under ``name``.

        ``count(args, result)`` gives the work items a call handled.
        """
        stack, calls, self_ns, values = self._stack, self.calls, self.self_ns, self.values

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            stack.append(0)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self_ns[name] += dt - stack.pop()
                stack[-1] += dt
                calls[name] += 1
            if count is not None:
                values[name] += count(args, out)
            return out

        return wrapper

    def _patch(self, name, owners, attr, count=None):
        wrapper = self.wrap(name, getattr(owners[0], attr), count)
        for owner in owners:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self, workload):
        """Patch every traced function, plus the workload's own objective."""
        stream, network = rng.RngStream, queuesim.QueueNetwork
        self._patch("rng.random", [stream], "random")
        self._patch("rng.exponential", [stream], "exponential")
        self._patch("rng.random_array", [stream], "random_array", lambda a, out: len(out))
        self._patch("rng.child", [stream], "child")
        self._patch("queuesim.step", [network], "step")
        self._patch("queuesim.set_parameter", [network], "set_parameter")
        self._patch("queuesim.init", [network], "__init__")
        # Modules that import a function by name hold their own reference to it.
        self._patch("qgauss.sample_vector", [qgauss, optimizer], "sample_vector")
        self._patch("qgauss.sample_matrix", [qgauss, sfgrad], "sample_matrix", lambda a, out: out.size)
        self._patch("optimizer.run_qsf", [optimizer, harness], "run_qsf",
                    lambda a, out: len(out.records))
        self._patch("sfgrad.estimate_gradient", [sfgrad], "estimate_gradient")
        self._patch("harness.run_single_trial", [harness], "run_single_trial")
        self._patch("harness.run_experiment", [harness], "run_experiment")
        for attr in ("write_sweep_csv", "write_timings_csv", "summarize"):
            self._patch("harness.write", [harness], attr)
        if hasattr(workload, "objective"):
            self._patch("sfgrad.objective", [workload], "objective")

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def counts(self) -> dict:
        """Everything that must repeat exactly from one round to the next."""
        return {"calls": dict(self.calls), "values": dict(self.values)}


def _per(num, den):
    return num / den if den else 0.0


def round_metrics(t: Tracer, blocks: int) -> dict:
    """Per-layer figures of one traced round; ``blocks`` is the optimizer's
    outer iterations in the round."""
    c, ns, v = t.calls, t.self_ns, t.values
    out = {
        "rng.random.calls": c["rng.random"],
        "rng.random.ns": _per(ns["rng.random"], c["rng.random"]),
        "rng.exponential.calls": c["rng.exponential"],
        "rng.exponential.ns": _per(ns["rng.exponential"], c["rng.exponential"]),
        "rng.random_array.values": v["rng.random_array"],
        "rng.random_array.ns_per_value": _per(ns["rng.random_array"], v["rng.random_array"]),
        "rng.child.calls": c["rng.child"],
        "rng.child.us": _per(ns["rng.child"], c["rng.child"]) / 1e3,
        "queuesim.step.calls": c["queuesim.step"],
        "queuesim.step.ns": _per(ns["queuesim.step"], c["queuesim.step"]),
        "queuesim.set_parameter.calls": c["queuesim.set_parameter"],
        "queuesim.set_parameter.us": _per(ns["queuesim.set_parameter"], c["queuesim.set_parameter"]) / 1e3,
        "queuesim.init.us": _per(ns["queuesim.init"], c["queuesim.init"]) / 1e3,
        "qgauss.sample_vector.calls": c["qgauss.sample_vector"],
        "qgauss.sample_vector.us": _per(ns["qgauss.sample_vector"], c["qgauss.sample_vector"]) / 1e3,
        "qgauss.sample_matrix.values": v["qgauss.sample_matrix"],
        "qgauss.sample_matrix.ns_per_value": _per(ns["qgauss.sample_matrix"], v["qgauss.sample_matrix"]),
        "optimizer.run_qsf.calls": c["optimizer.run_qsf"],
        "optimizer.block.us": _per(ns["optimizer.run_qsf"], blocks) / 1e3,
        "optimizer.records": _per(v["optimizer.run_qsf"], c["optimizer.run_qsf"]),
        "sfgrad.estimate_gradient.calls": c["sfgrad.estimate_gradient"],
        "sfgrad.estimate_gradient.self_s": ns["sfgrad.estimate_gradient"] / 1e9,
        "sfgrad.objective.s": ns["sfgrad.objective"] / 1e9,
        "harness.run_single_trial.self_us": _per(ns["harness.run_single_trial"], c["harness.run_single_trial"]) / 1e3,
        "harness.run_experiment.self_s": ns["harness.run_experiment"] / 1e9,
        "harness.write.ms": ns["harness.write"] / 1e6,
    }
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            t_ns for name, t_ns in ns.items()
            if name.startswith(module + ".") and name != "sfgrad.objective"
        ) / 1e9
    return out


def median_metrics(rounds: list) -> dict:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
