"""The benchmark's workloads: fixed sweeps of calls into ``repro.apps``.

Each call is one cluster run, a *point*; one sweep over a workload's
points is a *pass*.  A point returns ``(ok, output, sim_s)``: whether its
own correctness check held, its simulated outputs (compared across passes
and digested), and the simulated seconds it contributes to ``sim_s``
(zero unless it runs the optimised "MVAPICH2-New" stack).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.apps as apps
from repro.mpi import MPIConfig
from repro.prof import session

BASE = MPIConfig.baseline()
OPT = MPIConfig.optimized()
IMPLEMENTATIONS = ("hand-tuned", "MVAPICH2-0.9.5", "MVAPICH2-New")

PointResult = Tuple[bool, tuple, float]


@dataclass
class Point:
    label: str
    run: Callable[[int], PointResult]


@dataclass
class Workload:
    name: str
    points: List[Point]
    #: called at the start and the end of every pass (inside its timing)
    begin: Callable[[], None] = lambda: None
    end: Callable[[], None] = lambda: None
    #: the same points with profiling off (``prof.overhead_x``)
    twin: Optional["Workload"] = None


def _sim(config: MPIConfig, seconds: float) -> float:
    return seconds if config is OPT else 0.0


def _allgatherv(nprocs: int, config: MPIConfig) -> Point:
    def run(seed: int) -> PointResult:
        r = apps.allgatherv_benchmark(nprocs, 4096, config, seed=seed)
        return r.correct, (r.latency, r.correct), _sim(config, r.latency)
    return Point(f"allgatherv 32KB outlier np={nprocs} {config.name}", run)


def _alltoallw(nprocs: int, config: MPIConfig) -> Point:
    def run(seed: int) -> PointResult:
        r = apps.alltoallw_ring_benchmark(nprocs, config, seed=seed)
        return r.correct, (r.latency, r.correct), _sim(config, r.latency)
    return Point(f"alltoallw ring np={nprocs} {config.name}", run)


def _multigrid(nprocs: int, impl: str, grid: int, cycles: int) -> Point:
    def run(seed: int) -> PointResult:
        r = apps.laplacian3d_benchmark(
            nprocs, impl, grid=(grid,) * 3, levels=3, fixed_cycles=cycles,
            seed=seed,
        )
        red = r.residual_reduction
        ok = r.cycles == cycles and math.isfinite(red) and 0.0 < red < 1.0
        sim = r.execution_time if impl == "MVAPICH2-New" else 0.0
        return ok, (r.execution_time, r.cycles, red, r.converged), sim
    return Point(f"multigrid {impl} np={nprocs} {grid}^3 cycles={cycles}", run)


def _vecscatter(nprocs: int, impl: str) -> Point:
    backend = "hand_tuned" if impl == "hand-tuned" else "datatype"
    config = OPT if impl == "MVAPICH2-New" else BASE

    def run(seed: int) -> PointResult:
        r = apps.vecscatter_benchmark(nprocs, backend, config, seed=seed)
        return r.correct, (r.latency, r.correct), _sim(config, r.latency)
    return Point(f"vecscatter {impl} np={nprocs}", run)


def _transpose(n: int, config: MPIConfig) -> Point:
    def run(seed: int) -> PointResult:
        r = apps.transpose_benchmark(n, config, seed=seed)
        out = (r.latency, r.correct, tuple(sorted(r.breakdown.items())))
        return r.correct, out, _sim(config, r.latency)
    return Point(f"transpose {n}x{n} {config.name}", run)


#: what the profiled pass measured last (read by the traced run)
PROFILE: Dict[str, float] = {"spans": 0, "trace_bytes": 0}


def _profile_report() -> Point:
    def run(seed: int) -> PointResult:
        rep = session.report()
        ok = bool(rep["breakdown_valid"]) and rep["breakdown_rows"] > 0
        breakdown = json.dumps(rep["breakdown"], sort_keys=True)
        return ok, (rep["clusters"], rep["breakdown_rows"], breakdown), 0.0
    return Point("prof session.report", run)


def _profile_trace(path: str) -> Point:
    def run(seed: int) -> PointResult:
        session.write_chrome_trace(path)
        PROFILE["trace_bytes"] = os.path.getsize(path)
        PROFILE["spans"] = sum(len(p.tracer) for p in session.profilers())
        ok = PROFILE["trace_bytes"] > 0 and PROFILE["spans"] > 0
        return ok, (PROFILE["spans"], PROFILE["trace_bytes"]), 0.0
    return Point("prof write_chrome_trace", run)


#: the workloads; ``BENCHMARK.json`` and README.md give the reason for each
WORKLOADS = ("collectives", "multigrid", "scatter", "profiled")


def build(name: str, outdir: str) -> Workload:
    """The workload called ``name``; files it writes go under ``outdir``."""
    if name == "collectives":
        points = [make(n, c) for n in (24, 48) for c in (BASE, OPT)
                  for make in (_allgatherv, _alltoallw)]
        return Workload(name, points)
    if name == "multigrid":
        return Workload(name, [_multigrid(4, i, 48, 3) for i in IMPLEMENTATIONS])
    if name == "scatter":
        points = [_vecscatter(16, i) for i in IMPLEMENTATIONS]
        points += [_transpose(1024, c) for c in (BASE, OPT)]
        return Workload(name, points)
    if name == "profiled":
        solves = [_multigrid(2, i, 24, 3) for i in IMPLEMENTATIONS]
        trace = os.path.join(outdir, "profiled-trace.json")
        return Workload(
            name, solves + [_profile_report(), _profile_trace(trace)],
            begin=session.enable, end=session.disable,
            twin=Workload(name + "-unprofiled", solves),
        )
    raise KeyError(name)


def canonical(value: Any) -> str:
    """A stable text form of simulated outputs (floats as exact hex)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canonical(v) for v in value) + ")"
    return repr(value)


def digest(outputs: List[str]) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()[:16]
