#!/usr/bin/env python3
"""Toy-size self-test of the benchmark; takes seconds.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at toy size, untraced and
traced, and checks that the last line printed is a result object carrying
every end-to-end (untraced) or per-layer (traced) metric BENCHMARK.json
names, with its unit. Then checks that a copy holding only BENCHMARK.json
and the benchmark's files exits nonzero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = []
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{wl['name']} --trace {trace}"
            before = len(errors)
            proc = run(ROOT, wl["name"], trace)
            result = last_json(proc.stdout)
            if proc.returncode != 0 or result is None:
                errors.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if result.get("correct") is not True or not result.get("attempted", 0) >= 1:
                errors.append(f"{label}: correct={result.get('correct')} attempted={result.get('attempted')}")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != wanted:
                errors.append(f"{label}: metrics differ from BENCHMARK.json {group}: "
                              f"missing {sorted(set(wanted) - set(got))}, "
                              f"extra {sorted(set(got) - set(wanted))}, "
                              f"units {[k for k in wanted if k in got and got[k] != wanted[k]]}")
            print(f"{label}: {'ok' if len(errors) == before else 'FAIL'}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    refused = proc.returncode != 0 and last_json(proc.stdout) is None
    if not refused:
        errors.append(f"without the program's sources: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
    print(f"without the program's sources: {'refused, ok' if refused else 'FAIL'}")

    for e in errors:
        print(e, file=sys.stderr)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
