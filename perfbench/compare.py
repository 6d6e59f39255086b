#!/usr/bin/env python3
"""Spreads and regressions over sets of benchmark runs.

    python3 perfbench/compare.py RUNS.jsonl              # spread per metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl    # flag regressions

A runs file holds one JSON record per line, as ``repeat.py`` writes them.
The spread of a metric is the distance between the first and third
quartile of its values over the runs, as a share of their median.  A metric
regresses when NEW's median is worse than BASE's by more than the metric's
``bound`` in ``BENCHMARK.json``; per-layer metrics have no bound and are
only listed.  Exits 1 when any metric of any workload regresses.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spec() -> dict:
    """name -> BENCHMARK.json entry (end-to-end and per-layer)."""
    bench = benchmark()
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_metric(records: list) -> dict:
    """(workload, metric) -> list of values."""
    out = defaultdict(list)
    for rec in records:
        for name, m in rec["metrics"].items():
            out[rec["workload"], name].append(m["value"])
    return out


def spread(values: list) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def worse_by(base: float, new: float, better: str) -> float:
    """Relative change of ``new`` against ``base``; positive is worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def changes(base: list, new: list) -> list:
    """[(workload, metric, base median, new median, worse_by, regressed)]
    for every metric in both sets; only end-to-end metrics can regress."""
    specs = spec()
    b, n = by_metric(base), by_metric(new)
    out = []
    for key in sorted(b.keys() & n.keys()):
        entry = specs.get(key[1], {})
        mb, mn = statistics.median(b[key]), statistics.median(n[key])
        w = worse_by(mb, mn, entry.get("better", "lower"))
        out.append((*key, mb, mn, w, "bound" in entry and w > entry["bound"]))
    return out


def regressions(base: list, new: list) -> list:
    """[(workload, metric, worse_by)] beyond each end-to-end bound."""
    return [(w, m, by) for w, m, _, _, by, bad in changes(base, new) if bad]


def print_spreads(records: list) -> bool:
    specs = spec()
    steady = True
    print(f"{'workload':12} {'metric':28} {'n':>3} {'median':>14} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, name), values in sorted(by_metric(records).items()):
        bound = specs.get(name, {}).get("bound")
        s = spread(values)
        flag = ""
        if bound is not None and name != "setup_s" and s > bound / 3:
            flag, steady = "  > bound/3", False
        print(f"{workload:12} {name:28} {len(values):3d} "
              f"{statistics.median(values):14.6g} {s:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    bad = [r for r in records if not r["correct"]]
    for r in bad:
        print(f"INCORRECT: {r['workload']} seed={r['seed']} "
              f"failed {r['failed']} of {r['attempted']}")
    return steady and not bad


def print_regressions(base: list, new: list) -> bool:
    rows = changes(base, new)
    for workload, name, mb, mn, w, bad in rows:
        print(f"{workload:12} {name:28} {mb:14.6g} -> {mn:14.6g} "
              f"{w:+9.2%} {'REGRESSED' if bad else ''}")
    return not any(row[-1] for row in rows)


def main(argv: list) -> int:
    if len(argv) == 1:
        return 0 if print_spreads(load(argv[0])) else 1
    if len(argv) == 2:
        return 0 if print_regressions(load(argv[0]), load(argv[1])) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
