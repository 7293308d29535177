"""Command-line entry points.

    qsf run <config.json> [--workers K] [--output-dir DIR]
    qsf trace <config.json> --q V --beta V --trial K [--out PATH] [--full]
    qsf verify-kernel --q V --betas B1,B2,... [--out PATH]
    qsf qgauss verify --q Q1,Q2,... --beta B1,B2,... [--dims 1,2]
    qsf summarize <results-dir>

Exit status is 1 when a requested self-check fails and 2 when an argument
or the config is invalid or a file cannot be read or written, reported as
``error: ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import harness
from .errors import QsfError
from .qgauss import QGaussianSpec, check_size
from .rng import RngStream


def _floats(text: str) -> list[float]:
    values = [float(v) for v in text.split(",") if v != ""]
    if not values:
        raise ValueError(f"no numbers in {text!r}")
    return values


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    cfg = harness.load_config(args.config)
    out_dir = args.output_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    result = harness.run_experiment(cfg, workers=args.workers)
    sweep_path = os.path.join(out_dir, "sweep.csv")
    harness.write_sweep_csv(result, sweep_path)
    harness.write_timings_csv(result, os.path.join(out_dir, "timings.csv"))
    harness.summarize(result, out_dir)
    # Self-check: sweep.csv must read back as exactly the records of the run.
    back = harness.read_sweep_csv(sweep_path, cfg)
    if harness.sweep_rows(back.records) != harness.sweep_rows(result.records):
        print(f"self-check failed: {sweep_path} does not read back as the run's records",
              file=sys.stderr)
        return 1
    print(f"wrote {out_dir}/sweep.csv, summary.csv, summary_stderr.csv, timings.csv")
    return 0


def _cmd_trace(args) -> int:
    cfg = harness.load_config(args.config)
    trace = harness.trace_run(cfg, args.q, args.beta, args.trial)
    out = args.out or f"trace_q{args.q:g}_beta{args.beta:g}_trial{args.trial}.csv"
    harness.emit_trace(trace, out, cfg.network.theta_target)
    if args.full:
        root, ext = os.path.splitext(out)
        harness.write_full_trace(trace, root + "_full" + ext, cfg.network.theta_target)
    print(f"wrote {out}")
    return 0


def _cmd_verify_kernel(args) -> int:
    from . import oracles  # SciPy loads only for the verification commands

    report = oracles.verify_kernel_properties(args.q, _floats(args.betas))
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def _cmd_qgauss_verify(args) -> int:
    from . import oracles

    rng = RngStream(args.seed)
    qs, betas = _floats(args.q), _floats(args.beta)
    dims = [int(d) for d in args.dims.split(",")]
    for q in qs:  # every argument before any check runs, as verify-kernel does
        for beta in betas:
            QGaussianSpec(q, beta)
    for dim in dims:
        check_size("dim", dim)
    failures = 0
    for q in qs:
        for beta in betas:
            for name, ok, detail in oracles.qgauss_invariants(q, beta, dims, rng):
                print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
                failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def _cmd_summarize(args) -> int:
    sweep_path = os.path.join(args.results_dir, "sweep.csv")
    result = harness.read_sweep_csv(sweep_path)
    table = harness.summarize(result, args.results_dir)
    for row in table:
        print(",".join(row))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qsf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full (q, beta, trial) sweep")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--output-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_trace = sub.add_parser("trace", help="run one cell and write its distance curve")
    p_trace.add_argument("config")
    p_trace.add_argument("--q", type=float, required=True)
    p_trace.add_argument("--beta", type=float, required=True)
    p_trace.add_argument("--trial", type=int, default=0)
    p_trace.add_argument("--out", default=None)
    p_trace.add_argument("--full", action="store_true", help="also write the full state trace")
    p_trace.set_defaults(func=_cmd_trace)

    p_vk = sub.add_parser("verify-kernel", help="emit the kernel-property report as JSON")
    p_vk.add_argument("--q", type=float, required=True)
    p_vk.add_argument("--betas", required=True, help="comma-separated decreasing list")
    p_vk.add_argument("--out", default=None)
    p_vk.set_defaults(func=_cmd_verify_kernel)

    p_qg = sub.add_parser("qgauss", help="distribution self-tests")
    qg_sub = p_qg.add_subparsers(dest="qgauss_command", required=True)
    p_qgv = qg_sub.add_parser("verify", help="run the distribution invariant suite")
    p_qgv.add_argument("--q", required=True, help="comma-separated entropic indices")
    p_qgv.add_argument("--beta", default="1.0", help="comma-separated widths")
    p_qgv.add_argument("--dims", default="1,2")
    p_qgv.add_argument("--seed", type=int, default=7)
    p_qgv.set_defaults(func=_cmd_qgauss_verify)

    p_sum = sub.add_parser("summarize", help="rebuild summary tables from sweep.csv")
    p_sum.add_argument("results_dir")
    p_sum.set_defaults(func=_cmd_summarize)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QsfError, ValueError, OSError) as exc:  # an argument out of range, a path that fails
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
