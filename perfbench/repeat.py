#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/repeat.py --workload scatter --seeds 1-10 --out runs.jsonl
    python3 perfbench/repeat.py --workload all --seeds 1-5 --trace 1 --out t.jsonl

Runs ``run.py`` once per workload and seed, one after the other, appends
each result (with its workload and seed) to ``--out`` as a JSON line, then
prints the spread table of ``compare.py``.  Arguments after ``--`` are
passed to ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: float, trace: int,
        extra=()) -> dict:
    """One ``run.py`` invocation; its result record."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=os.path.dirname(HERE), timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines
                  if line.strip().startswith("outputs digest"))
    return dict(json.loads(lines[-1]), workload=workload, seed=seed,
                trace=trace, digest=digest)


def main() -> int:
    argv = sys.argv[1:]
    extra = []
    if "--" in argv:
        extra = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload name, or 'all'; repeatable")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 7")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    workloads = args.workload
    if "all" in workloads:
        workloads = [w["name"] for w in compare.benchmark()["workloads"]]
    records = []
    with open(args.out, "a") as fh:
        for workload in workloads:
            for seed in seeds(args.seeds):
                rec = run(workload, seed, args.seconds, args.trace, extra)
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                records.append(rec)
    return 0 if compare.print_spreads(records) else 1


if __name__ == "__main__":
    sys.exit(main())
