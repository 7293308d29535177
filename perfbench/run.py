#!/usr/bin/env python3
"""Benchmark of the qsf optimizer: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run from the root of a source checkout; the program is imported from its
``src``. One invocation runs one workload (``cell8_long_blocks``,
``grid_short_blocks`` or ``estimator_batch``) in rounds of identical calls
for about S seconds, checks every round's outputs, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. ``--toy`` shrinks every workload for a quick
self-test. ``--write-reference`` runs every seed class once, checks it and
rewrites the reference ``sweep.csv`` digests in ``reference.json``.
Outputs go to ``perfbench/out/``. See README.md.
"""

import os

# One process, one core: BLAS must not start threads of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("cell8_long_blocks", "grid_short_blocks", "estimator_batch")
SETUP_PROBES = {"full": 5, "toy": 1}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB"}


def import_program() -> float:
    """Import qsf from the checkout's ``src``; return the seconds it took."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import qsf

    if os.path.dirname(os.path.abspath(qsf.__file__)) != os.path.join(SRC, "qsf"):
        raise SystemExit(f"qsf was imported from {qsf.__file__}, not from {SRC}")
    return time.perf_counter() - t0


def measure_setup(args, size: str) -> tuple:
    """Median set-up time and import time over fresh interpreters.

    Each probe process starts, imports qsf, builds the workload's inputs and
    reports the monotonic clock, which Linux shares between processes.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    setup, imports = [], []
    for _ in range(SETUP_PROBES[size]):
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        setup.append(probe["ready"] - t0)
        imports.append(probe["import_s"])
    return statistics.median(setup), statistics.median(imports)


def run_rounds(w, seconds: float, tracing: bool) -> tuple:
    """Whole rounds until the next would overrun ``seconds``.

    With tracing, the first round runs untraced as the overhead reference
    and at least one traced round follows.
    """
    from tracer import Tracer

    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if tracing and rounds else None
        if tracer:
            tracer.install(w)
        try:
            rnd = w.run()
        finally:
            if tracer:
                tracer.remove()
        w.check(rnd)
        rounds.append(rnd)
        if tracer:
            traced.append((rnd, tracer))
        if time.perf_counter() - start + rnd.wall_s > seconds and (traced or not tracing):
            return rounds, traced


def reference_digest(name: str, seed: int):
    import workloads

    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)["sha256"][name][seed % workloads.SEED_CLASSES]
    except (OSError, KeyError, IndexError):
        return None


def digest_problems(w, rounds, seed: int, size: str) -> list:
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        return [f"sweep.csv differs between rounds: {sorted(digests)}"]
    if size != "full":
        return []
    ref = reference_digest(w.name, seed)
    if ref is None:
        return [f"no reference digest for {w.name}; run: python3 perfbench/run.py --write-reference"]
    if ref != rounds[0].digest:
        return [f"sweep.csv SHA-256 {rounds[0].digest} differs from the reference {ref}; "
                "if the change of results is intended, regenerate with --write-reference"]
    return []


def trace_metrics(w, rounds, traced, import_s: float) -> tuple:
    """Per-layer metrics (medians over traced rounds) and count problems."""
    from tracer import PER_LAYER_UNITS, median_metrics, round_metrics

    problems = []
    counts = [t.counts() for _, t in traced]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced rounds")
    per_round = [round_metrics(t, w.blocks) for _, t in traced]
    values = median_metrics(per_round)
    if values["queuesim.step.calls"] != w.queue_steps:
        problems.append(f"queuesim.step.calls = {values['queuesim.step.calls']}, "
                        f"expected trials x M x L = {w.queue_steps}")
    values["setup.import_s"] = import_s
    values["trace.overhead_s"] = statistics.median(r.wall_s for r, _ in traced) - rounds[0].wall_s
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}, problems


def run_benchmark(args) -> int:
    import_program()
    import workloads

    size = "toy" if args.toy else "full"
    w = workloads.build(args.workload, args.seed, size, OUT)
    rounds, traced = run_rounds(w, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = [p for r in rounds for p in r.problems]
    problems += w.final_check(rounds[-1])
    if isinstance(w, workloads.Sweep):
        problems += digest_problems(w, rounds, args.seed, size)
    setup_s, import_s = measure_setup(args, size)
    if args.trace:
        metrics, more = trace_metrics(w, rounds, traced, import_s)
        problems += more
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "events_per_s": statistics.median(r.events / r.entry_s for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for note in dict.fromkeys(n for r in rounds for n in r.notes):
        print(f"{args.workload}: failed operation: {note}", file=sys.stderr)
    for p in problems:
        print(f"{args.workload}: wrong output: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def setup_probe(args) -> int:
    import_s = import_program()
    import workloads

    workloads.build(args.workload, args.seed, "toy" if args.toy else "full", OUT)
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
    return 0


def write_reference() -> int:
    """Run every seed class once at full size, check it, store the digests."""
    import_program()
    import workloads

    digests = {}
    bad = 0
    for seed in range(workloads.SEED_CLASSES):
        for name in WORKLOADS:
            w = workloads.build(name, seed, "full", OUT)
            rnd = w.run()
            w.check(rnd)
            problems = rnd.problems + w.final_check(rnd)
            if isinstance(w, workloads.Sweep):
                digests.setdefault(name, []).append(rnd.digest)
            expected = [n for n in rnd.notes if n.startswith(f"q={workloads.FAULTY_Q}:")]
            unexpected = problems + [n for n in rnd.notes if n not in expected]
            bad += bool(unexpected)
            status = "; ".join(unexpected) or "ok"
            if expected:
                status += f" ({len(expected)} known-fault failure)"
            print(f"seed class {seed:2d} {name}: {status}", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed_classes": workloads.SEED_CLASSES, "base_seed": workloads.BASE_SEED,
                   "sizes": workloads.SIZES["full"], "sha256": digests}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}; {bad} workload runs with unexpected results")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
