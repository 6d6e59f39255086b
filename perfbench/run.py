#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload collectives --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: ``repro`` is imported from its ``src/``.
A workload is a closed loop of passes: the next pass starts when the
previous one ends.  A process's first pass runs cold and is not timed as a
pass; with the import before it, it is that process's set-up.

Host times are reported in reference-host seconds: each pass's seconds are
scaled by how fast ``calibrate.kernel`` ran just before and just after it,
which takes the shared host's drifting speed out of the figures.  The raw
medians are printed too.

``--trace 0`` prints the end-to-end metrics of ``catalogue.END_TO_END``.
It splits ``--seconds`` over :data:`WORKERS` fresh processes run one after
another, and pools their passes and set-ups.
``--trace 1`` prints the per-layer metrics of ``catalogue.PER_LAYER`` from
this one process: untraced passes for half the time, then traced passes
(the wrappers of ``layers.py``) for the other half.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
name the seed, the output digest and every metric with its unit.  The same
record, with the seed, is written to ``.perfbench_out/``.

``--inject`` makes a deliberately worse run for the self-test
(``selftest.py``); it is never used for measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

#: a worker's set-up is timed from here, so it includes importing numpy
T_START = time.perf_counter()

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench_out")
#: fresh processes an end-to-end run is split over (one set-up each)
WORKERS = 4
#: all workers of one run must end within this many seconds
WORKER_TIMEOUT = 170.0
#: spans kept in memory (and written out) from the first traced pass
SPAN_CAP = 200_000
#: allowed gap between the summed layer self times and the traced pass
TILING_TOLERANCE = 1e-3

clock = time.perf_counter


def load_suite():
    """Import ``repro`` from this checkout's ``src/``, then the workloads."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: repro imported from outside {SRC}")
    import suite

    return suite


# -- passes ---------------------------------------------------------------


class Pass:
    """One sweep over a workload's points."""

    def __init__(self, wall: float, point_s: list, results: list):
        self.wall = wall
        self.point_s = point_s
        self.results = results


def run_pass(workload, seed: int, tracer=None) -> Pass:
    root = tracer.open_root() if tracer else None
    t0 = clock()
    point_s, results = [], []
    workload.begin()
    try:
        for point in workload.points:
            t = clock()
            try:
                results.append(point.run(seed))
            except Exception as exc:  # noqa: BLE001 - a raising point fails
                results.append((False, ("raised", repr(exc)), 0.0))
            point_s.append(clock() - t)
    finally:
        workload.end()
    wall = clock() - t0
    if tracer:
        tracer.close_root(root)
    return Pass(wall, point_s, results)


class Ledger:
    """Attempts, failures and the outputs every pass must reproduce."""

    def __init__(self, suite):
        self.suite = suite
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.sim_s = 0.0

    def account(self, p: Pass) -> None:
        outputs = [self.suite.canonical(out) for _, out, _ in p.results]
        if self.reference is None:
            self.reference = outputs
            self.sim_s = sum(sim for _, _, sim in p.results)
        for (ok, _, _), text, ref in zip(p.results, outputs, self.reference):
            self.attempted += 1
            if not ok or text != ref:
                self.failed += 1

    @property
    def digest(self) -> str:
        return self.suite.digest(self.reference or [])


def loop(seconds: float, step) -> list:
    """Closed loop: call ``step()`` until ``seconds`` have passed (once at
    least), with the calibration kernel run before the first call and after
    each; returns each call's factor to reference-host seconds."""
    factors = []
    before = calibrate.measure()
    t_end = clock() + seconds
    while not factors or clock() < t_end:
        step()
        after = calibrate.measure()
        factors.append(calibrate.factor(before, after))
        before = after
    return factors


def tail(values):
    """(value, percentile, n): the highest percentile of ``values`` with at
    least ten samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(values)
    k = len(xs) - 10
    if k < 1:
        return xs[-1], 100.0, len(xs)
    return xs[k - 1], 100.0 * k / len(xs), len(xs)


# -- trace 0: end-to-end --------------------------------------------------


def worker(args, suite, workload) -> None:
    """One worker process: set-up (import + cold pass), then warm passes
    for ``--seconds``; prints its raw measurements as one JSON line."""
    ledger = Ledger(suite)
    ledger.account(run_pass(workload, args.seed))
    setup_s = clock() - T_START
    setup_factor = calibrate.REFERENCE_S / calibrate.measure()
    walls = []

    def step():
        p = run_pass(workload, args.seed)
        ledger.account(p)
        walls.append(p.wall)

    factors = loop(args.seconds, step)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "setup_s": setup_s * setup_factor, "raw_setup_s": setup_s,
        "walls": [w * f for w, f in zip(walls, factors)], "raw_walls": walls,
        "peak_rss_mb": rss, "attempted": ledger.attempted,
        "failed": ledger.failed, "digest": ledger.digest, "sim_s": ledger.sim_s,
    }))


def end_to_end(args):
    """Run :data:`WORKERS` fresh worker processes one after another, each
    for an equal share of ``--seconds``, and pool their passes.

    Each process draws its own hash seed and memory layout, which move a
    pass's host time by several percent; pooling several processes keeps
    that per-process luck out of the run-to-run spread.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / WORKERS), *injection_args(args)]
    deadline = clock() + WORKER_TIMEOUT
    runs = []
    for _ in range(WORKERS):
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - clock()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: worker exited {proc.returncode}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    walls = [w for r in runs for w in r["walls"]]
    setup = [r["setup_s"] for r in runs]
    digests = {r["digest"] for r in runs}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + (len(digests) > 1)
    raw_walls = [w for r in runs for w in r["raw_walls"]]
    tail_s, pct, n = tail(walls)
    notes = [f"pass_s median of {n} warm passes in {WORKERS} processes "
             f"(reference-host seconds; raw median "
             f"{statistics.median(raw_walls):.4f} s)",
             f"pass_s_tail p{pct:.1f} of {n} passes",
             "setup_s median of set-ups "
             + ", ".join(f"{s:.4f}" for s in setup) + " (raw "
             + ", ".join(f"{r['raw_setup_s']:.4f}" for r in runs) + ")",
             f"fail_frac {failed / attempted:.6f} ({failed} of {attempted} points)"]
    if len(digests) > 1:
        notes.append(f"workers disagree on the outputs: {sorted(digests)}")
    metrics = {
        "pass_s": statistics.median(walls),
        "pass_s_tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "sim_s": runs[0]["sim_s"],
    }
    return attempted, failed, runs[0]["digest"], metrics, notes


# -- trace 1: per layer ---------------------------------------------------


def layer_snapshot(tracer, wall: float) -> dict:
    """Per-layer metrics of the traced pass that just ended."""
    selfs = tracer.layer_self()
    calls = tracer.calls
    clusters = tracer.clusters
    messages = sum(c.net.messages_on_wire for c in clusters)
    setups = ("petsc:VecScatter.from_index_sets",
              "petsc:VecScatter.from_needed_indices")
    utils = [c.utilization_report()["max_send_link_utilization"]
             for c in clusters]
    snap = {
        "simtime.events": sum(c.engine.events_fired for c in clusters),
        "simtime.zero_delay_events": tracer.zero_delay,
        "simtime.processes": sum(c.engine.processes_spawned for c in clusters),
        "simtime.self_s": selfs["simtime"],
        "net.messages": messages,
        "net.bytes": sum(c.net.bytes_on_wire for c in clusters),
        "net.zero_byte_messages": tracer.zero_byte,
        "net.link_util": sum(utils) / len(utils) if utils else 0.0,
        "datatypes.typed_buffers": calls("datatypes:TypedBuffer.__init__"),
        "datatypes.self_s": selfs["datatypes"],
        "p2p.calls": tracer.layer_calls("p2p"),
        "p2p.self_s": selfs["p2p"],
        "p2p.host_us_per_msg": selfs["p2p"] / messages * 1e6 if messages else 0.0,
        "collectives.calls": tracer.layer_calls("collectives"),
        "collectives.self_s": selfs["collectives"],
        "petsc.scatter_setups": sum(calls(k) for k in setups),
        "petsc.scatter_setup_s": sum(tracer.span_seconds(k) for k in setups),
        "petsc.scatters": calls("petsc:VecScatter.scatter"),
        "petsc.self_s": selfs["petsc"],
        "prof.self_s": selfs["prof"],
        "apps.self_s": selfs["apps"],
        "numpy.self_s": selfs["numpy"],
    }
    for cat in ("comm", "pack", "search", "sync"):
        snap[f"sim.{cat}_s"] = sum(c.ledger_total(cat) for c in clusters)
    total = sum(selfs.values())
    snap["_tiling_error"] = abs(total - wall) / wall
    snap["_min_self"] = min(selfs.values())
    snap["_bench_self_s"] = selfs["bench"]
    return snap


def per_layer(args, suite, workload):
    import layers
    from catalogue import EXACT, HOST_TIMES, NOTES
    from repro.datatypes import ir

    ledger = Ledger(suite)
    tracer = layers.Tracer()
    notes = []

    # cold pass, traced: datatype-plan compilation happens here
    before = ir.cache_stats()
    tracer.install()
    tracer.reset()
    cold = loop(0, lambda: ledger.account(run_pass(workload, args.seed, tracer)))
    compile_s = tracer.span_seconds("datatypes:compile_datatype") * cold[0]
    tracer.uninstall()
    after = ir.cache_stats()
    compiles = after["misses"] - before["misses"]
    lookups = compiles + after["hits"] - before["hits"]

    # untraced passes (and, for profiled, the same points unprofiled)
    plain, twin, report_s, trace_s = [], [], [], []

    def untraced():
        p = run_pass(workload, args.seed)
        ledger.account(p)
        plain.append(p.wall)
        if workload.twin is not None:
            report_s.append(p.point_s[-2])
            trace_s.append(p.point_s[-1])
            twin.append(run_pass(workload.twin, args.seed).wall)

    factors = loop(args.seconds / 2, untraced)
    plain = [w * f for w, f in zip(plain, factors)]
    if twin:
        twin, report_s, trace_s = ([t * f for t, f in zip(ts, factors)]
                                   for ts in (twin, report_s, trace_s))

    # traced passes
    snaps, traced = [], []

    def traced_pass():
        tracer.reset(record_spans=SPAN_CAP if not snaps else 0)
        p = run_pass(workload, args.seed, tracer)
        snaps.append(layer_snapshot(tracer, p.wall))
        ledger.account(p)
        traced.append(p.wall)
        if len(snaps) == 1:
            write_spans(args, tracer.spans)

    tracer.install()
    try:
        factors = loop(args.seconds / 2, traced_pass)
    finally:
        tracer.uninstall()
    traced = [w * f for w, f in zip(traced, factors)]
    for snap, f in zip(snaps, factors):
        for name in HOST_TIMES:
            if name in snap:
                snap[name] *= f

    profiled = workload.twin is not None
    metrics = {}
    for name in snaps[0]:
        values = [s[name] for s in snaps]
        if name in EXACT:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                ledger.failed += 1
                notes.append(f"{name} differs between traced passes: {values}")
        else:
            metrics[name] = statistics.median(values)
    tiling = max(s["_tiling_error"] for s in snaps)
    if tiling > TILING_TOLERANCE or min(s["_min_self"] for s in snaps) < 0:
        ledger.failed += 1
        notes.append("layer self times do not tile the traced pass")
    notes.append(f"tiling: layer self times sum to the traced pass within "
                 f"{tiling:.2e} (bench harness self "
                 f"{metrics['_bench_self_s']:.4f} s)")
    metrics.update({
        "datatypes.ir_compiles": compiles,
        "datatypes.ir_hit_ratio": (lookups - compiles) / lookups if lookups else 0.0,
        "datatypes.compile_s": compile_s,
        "prof.report_s": statistics.median(report_s) if profiled else 0.0,
        "prof.trace_write_s": statistics.median(trace_s) if profiled else 0.0,
        "prof.spans": suite.PROFILE["spans"],
        "prof.trace_mb": suite.PROFILE["trace_bytes"] / 1e6,
        "prof.overhead_x": (statistics.median(plain) / statistics.median(twin)
                            if profiled else 0.0),
        "trace.overhead_x": statistics.median(traced) / statistics.median(plain),
    })
    notes.append(f"{len(plain)} untraced and {len(traced)} traced passes; "
                 f"cold-pass plan cache: {compiles} compiles in {lookups} lookups")
    notes += [f"{name}: {why}" for name, why in NOTES.items()]
    return ledger.attempted, ledger.failed, ledger.digest, metrics, notes


def write_spans(args, spans) -> None:
    """The first traced pass's spans: (id, name, parent id, start, end,
    seconds), times in host seconds."""
    os.makedirs(OUTDIR, exist_ok=True)
    path = os.path.join(OUTDIR, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "parent", "start", "end", "seconds"],
                   "spans": spans}, fh)


# -- self-test injections -------------------------------------------------


def injection_args(args) -> list:
    return ["--inject", args.inject] if args.inject else []


def inject(kind: str) -> None:
    """Make this run deliberately worse (``selftest.py``): ``degrade``
    makes every wire transfer four times slower; ``delay`` adds 200 us of
    host time to every ``Comm.isend`` call."""
    if kind == "degrade":
        from repro.faults import FaultPlan, set_default_plan

        set_default_plan(FaultPlan().degrade(4.0))
    elif kind == "delay":
        from repro.mpi.comm import Comm

        isend = Comm.isend

        def slowed(*args, **kwargs):
            until = clock() + 200e-6
            while clock() < until:
                pass
            return isend(*args, **kwargs)

        Comm.isend = slowed


# -- main -----------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--inject", choices=("degrade", "delay"),
                    help="self-test only: make the run deliberately worse")
    args = ap.parse_args(argv)

    if args.trace == 0 and not args.worker:
        report(args, *end_to_end(args))
        return 0
    suite = load_suite()
    if args.workload not in suite.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(suite.WORKLOADS)}")
    inject(args.inject)
    os.makedirs(OUTDIR, exist_ok=True)
    workload = suite.build(args.workload, OUTDIR)
    if args.worker:
        worker(args, suite, workload)
    else:
        report(args, *per_layer(args, suite, workload))
    return 0


def report(args, attempted, failed, digest, metrics, notes) -> None:
    from catalogue import END_TO_END, PER_LAYER

    names = END_TO_END if args.trace == 0 else PER_LAYER
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit, *_ in names}
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"  outputs digest {digest} (simulated outputs of every point)")
    for line in notes:
        print(f"  {line}")
    for name, m in out.items():
        print(f"  seed={args.seed} {name} = {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": out}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, digest=digest)
    os.makedirs(OUTDIR, exist_ok=True)
    path = os.path.join(OUTDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
