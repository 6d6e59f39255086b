#!/usr/bin/env python3
"""Must-fail self-test: the benchmark flags runs made deliberately worse.

    python3 perfbench/selftest.py [--workload collectives] [--seconds 2]

Runs the workload on a few seeds three ways: as is; with every wire
transfer four times slower (``repro.faults`` default plan, which must be
flagged worse on ``sim_s``); and with a host delay added to every call of
one layer entry point (``Comm.isend``, which must be flagged worse on
``pass_s``).  Exits 0 only when both slowdowns are flagged.
"""

from __future__ import annotations

import argparse
import sys

import compare
import repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="collectives")
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--seeds", default="1-2")
    args = ap.parse_args()

    def runs(*extra):
        return [repeat.run(args.workload, seed, args.seconds, 0, extra)
                for seed in repeat.seeds(args.seeds)]

    base = runs()
    ok = True
    for kind, metric in (("degrade", "sim_s"), ("delay", "pass_s")):
        worse = runs("--inject", kind)
        flagged = {m for _, m, _ in compare.regressions(base, worse)}
        caught = metric in flagged
        ok &= caught
        print(f"--inject {kind}: flagged {sorted(flagged) or 'nothing'} -> "
              f"{'ok' if caught else f'MISSED {metric}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
