"""Tests for the causal critical-path analysis (``repro.prof.critical``)."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.mpi import Cluster, MPIConfig
from repro.prof import Profiler, critical, critical_path
from repro.prof.critical import (
    SEGMENT_CATEGORIES,
    CriticalPath,
    Segment,
    report,
    write_report,
)
from repro.prof.spans import Span, Tracer
from repro.util import CostModel

NRANKS = 8
SMALL, LARGE = 256, 16384
STRAGGLER = 3
COUNTS = [SMALL] * NRANKS
COUNTS[STRAGGLER] = LARGE
TOTAL = sum(COUNTS)


def _allgatherv_main(comm):
    send = np.full(COUNTS[comm.rank], float(comm.rank + 1))
    recv = np.zeros(TOTAL)
    yield from comm.allgatherv(send, recv, COUNTS)
    return recv


def run_profiled(fault_plan=None, config=None):
    cluster = Cluster(NRANKS, config=config or MPIConfig.optimized(),
                      cost=CostModel(cpu_noise=0.0), heterogeneous=False,
                      fault_plan=fault_plan)
    prof = Profiler.attach(cluster, label="critpath test")
    cluster.run(_allgatherv_main)
    return cluster, prof


@pytest.fixture(scope="module")
def clean_run():
    return run_profiled()


@pytest.fixture(scope="module")
def straggler_run():
    return run_profiled(FaultPlan().degrade(8.0, src=STRAGGLER))


# -- the identity the issue pins ---------------------------------------------

def test_segments_tile_the_makespan_exactly(clean_run):
    cluster, prof = clean_run
    crit = critical_path(prof)
    assert crit.makespan == pytest.approx(cluster.elapsed)
    assert crit.total() == pytest.approx(crit.makespan, rel=1e-9)
    # segments are contiguous and non-overlapping: each starts where the
    # previous ended, first at 0, last at the makespan
    assert crit.segments[0].t_start == pytest.approx(0.0, abs=1e-15)
    assert crit.segments[-1].t_end == pytest.approx(crit.makespan)
    for a, b in zip(crit.segments, crit.segments[1:]):
        assert b.t_start == pytest.approx(a.t_end, rel=1e-9)


def test_identity_survives_segment_cap(clean_run):
    _, prof = clean_run
    crit = critical_path(prof, max_segments=3)
    assert len(crit.segments) <= 4          # 3 walked + the capped prefix
    assert crit.total() == pytest.approx(crit.makespan, rel=1e-9)


def test_by_category_consistent_with_breakdown_vocabulary(clean_run):
    _, prof = clean_run
    crit = critical_path(prof)
    cats = crit.by_category()
    assert tuple(cats) == SEGMENT_CATEGORIES    # same vocabulary as export
    assert sum(cats.values()) == pytest.approx(crit.makespan, rel=1e-9)
    # the path's per-category time is bounded by the run's total activity
    # in that category (the path is one chain through the busy intervals)
    pack_total = sum(s.duration for s in prof.tracer.spans
                     if s.category == "cpu" and not s.open
                     and s.name in {"pack", "search", "lookahead", "unpack"})
    wire_total = sum(ev.t_end - ev.t_start for ev in prof.transfers)
    assert cats["pack"] <= pack_total + 1e-12
    assert cats["wire"] <= wire_total + 1e-12
    # and a communication-bound collective puts real wire time on the path
    assert cats["wire"] > 0


def test_by_rank_and_by_op_partition_the_path(clean_run):
    _, prof = clean_run
    crit = critical_path(prof)
    assert sum(r["total"] for r in crit.by_rank().values()) == \
        pytest.approx(crit.makespan, rel=1e-9)
    by_op = crit.by_op()
    assert sum(r["total"] for r in by_op.values()) == \
        pytest.approx(crit.makespan, rel=1e-9)
    assert any(op == "allgatherv" for op in by_op)


# -- straggler attribution ---------------------------------------------------

def test_straggler_rank_named(straggler_run):
    _, prof = straggler_run
    crit = critical_path(prof)
    strag = crit.stragglers()
    assert strag["detected"]
    assert STRAGGLER in strag["ranks"]
    # the slow-NIC rank carries the largest share of the path
    assert max(strag["times"]) == strag["times"][STRAGGLER]


def test_wire_segments_attributed_to_sender(straggler_run):
    _, prof = straggler_run
    crit = critical_path(prof)
    # rank 3's degraded NIC gates the run: wire time on the path lands on
    # the sender, not on the receivers that idled behind it
    wire_on_straggler = sum(
        s.duration for s in crit.segments
        if s.category == "wire" and s.rank == STRAGGLER)
    assert wire_on_straggler > 0.5 * crit.makespan


def test_clean_run_has_no_straggler(clean_run):
    # the volume outlier alone (no degraded NIC) spreads relay work around
    # the collective's communication pattern: concentration stays below the
    # Eq. 1 threshold and nobody is (wrongly) named
    _, prof = clean_run
    strag = critical_path(prof).stragglers()
    assert not strag["detected"]
    assert strag["ranks"] == []
    assert 1.0 <= strag["ratio"] < 4.0


# -- degenerate inputs -------------------------------------------------------

def test_empty_profiler():
    tracer = Tracer(SimpleNamespace(now=0.0))
    prof = SimpleNamespace(tracer=tracer, transfers=[], cluster=None,
                           label="empty")
    crit = critical_path(prof)
    assert crit.makespan == 0.0
    assert crit.segments == []
    assert crit.total() == 0.0
    strag = crit.stragglers()
    assert not strag["detected"]
    assert strag["ranks"] == []


def test_scripted_cross_rank_jump():
    """A hand-built two-rank run: rank 1 finishes last, blocked on a
    message from rank 0; the walk must jump the message edge."""
    clock = SimpleNamespace(now=0.0)
    tracer = Tracer(clock)
    with tracer.span("cpu", "compute", 0):       # rank 0 computes [0, 4]
        clock.now = 4.0
    xfer = SimpleNamespace(src=0, dst=1, t_start=4.0, t_end=7.0,
                           nbytes=64, tag=0, msg_id=42)
    clock.now = 7.0
    with tracer.span("cpu", "unpack", 1):        # rank 1 unpacks [7, 8]
        clock.now = 8.0
    prof = SimpleNamespace(tracer=tracer, transfers=[xfer], cluster=None,
                           label=None)
    crit = critical_path(prof)
    assert crit.makespan == pytest.approx(8.0)
    assert [s.category for s in crit.segments] == \
        ["compute", "wire", "pack"]              # unpack counts as pack
    assert [s.rank for s in crit.segments] == [0, 0, 1]   # wire -> sender
    assert crit.segments[1].msg_id == 42
    assert crit.total() == pytest.approx(8.0)


# -- the repro-critpath/1 document -------------------------------------------

def test_report_schema_and_roundtrip(straggler_run, tmp_path):
    _, prof = straggler_run
    doc = report(prof)
    assert doc["schema"] == "repro-critpath/1"
    run, = doc["runs"]
    assert run["label"] == "critpath test"
    assert run["nranks"] == NRANKS
    assert run["path_total"] == pytest.approx(run["makespan"], rel=1e-9)
    assert set(run["by_category"]) == set(SEGMENT_CATEGORIES)
    assert STRAGGLER in run["stragglers"]["ranks"]
    assert any("msg_id" in s for s in run["segments"])
    assert sum(s["duration"] for s in run["segments"]) == \
        pytest.approx(run["makespan"], rel=1e-9)

    path = tmp_path / "crit.json"
    written = write_report(str(path), prof)
    assert json.loads(path.read_text()) == json.loads(json.dumps(written))


def test_render_names_the_straggler(straggler_run):
    _, prof = straggler_run
    text = critical_path(prof).render()
    assert "critical path" in text
    assert "stragglers: rank(s)" in text
    assert str(STRAGGLER) in text


def test_segment_duration_property():
    s = Segment(0, 1.0, 3.5, "wire", "xfer 0->1", "allgatherv", msg_id=7)
    assert s.duration == pytest.approx(2.5)
    empty = CriticalPath(0.0, 0, [])
    assert empty.by_rank() == {}
    assert empty.by_op() == {}


# -- the bisect-windowed walk against the full-scan walk ---------------------

def _op_at_reference(windows, rank, t):
    best = None
    for t0, t1, depth, name in windows.get(rank, ()):
        if t0 > t:
            break
        if t1 >= t and (best is None or depth >= best[0]):
            best = (depth, name)
    return best[1] if best is not None else "(program)"


def critical_path_reference(profiler, max_segments=1_000_000):
    """The pre-bisect walk, which scans every interval on the rank for
    every segment: the differential oracle.  Interval lists come from the
    module's own builders (sorted exactly as before)."""
    busy = {r: v[0] for r, v in critical._busy_intervals(profiler).items()}
    windows = {r: v[0] for r, v in critical._op_windows(profiler).items()}
    nranks = (max(busy) + 1) if busy else 0
    makespan = 0.0
    end_rank = 0
    for rank, intervals in sorted(busy.items()):
        for b in intervals:
            if b.t_end > makespan:
                makespan = b.t_end
                end_rank = rank
    if makespan <= 0.0:
        return CriticalPath(0.0, nranks, [])
    eps = makespan * 1e-12

    segments = []
    rank, t = end_rank, makespan
    while t > eps and len(segments) < max_segments:
        intervals = busy.get(rank, ())
        cover = None
        for b in intervals:
            if b.t_end >= t - eps and b.t_start < t - eps:
                kind = 0 if b.category != "wire" else 1
                key = (kind, -b.t_start)
                if cover is None or key < cover[0]:
                    cover = (key, b)
        if cover is not None:
            b = cover[1]
            lo = max(b.t_start, 0.0)
            owner = b.src if (b.category == "wire" and b.src is not None) else rank
            segments.append(Segment(owner, lo, t, b.category, b.name,
                                    _op_at_reference(windows, rank, t),
                                    b.msg_id))
            t = lo
            if b.category == "wire" and b.src is not None:
                rank = b.src
            continue
        prev = 0.0
        for b in intervals:
            if b.t_end < t - eps and b.t_end > prev:
                prev = b.t_end
        segments.append(Segment(rank, prev, t, "wait", "wait",
                                _op_at_reference(windows, rank, t)))
        t = prev
    if t > eps:
        segments.append(Segment(rank, 0.0, t, "wait", "wait",
                                _op_at_reference(windows, rank, t)))
    segments.reverse()
    return CriticalPath(makespan, nranks, segments)


_TIMES = st.integers(0, 10).map(lambda k: k * 0.1)


@st.composite
def causal_profiles(draw):
    """Overlapping CPU spans, nested operation spans and transfers (self-
    transfers, shared endpoints and ties included) over three ranks."""
    spans = []
    for _ in range(draw(st.integers(0, 16))):
        t0, t1 = sorted((draw(_TIMES), draw(_TIMES)))
        category = draw(st.sampled_from(["cpu", "cpu", "collective", "p2p"]))
        name = draw(st.sampled_from(
            ["pack", "compute"] if category == "cpu" else ["bcast", "isend"]))
        rank = draw(st.integers(0, 2))
        spans.append(Span(id=len(spans), parent=None, category=category,
                          name=name, rank=rank, track=(rank, "main"),
                          t_start=t0, t_end=t1, depth=draw(st.integers(0, 2)),
                          attrs={"msg_id": len(spans)}))
    transfers = []
    for i in range(draw(st.integers(0, 10))):
        t0, t1 = sorted((draw(_TIMES), draw(_TIMES)))
        transfers.append(SimpleNamespace(
            src=draw(st.integers(0, 2)), dst=draw(st.integers(0, 2)),
            t_start=t0, t_end=t1, msg_id=i))
    return SimpleNamespace(tracer=SimpleNamespace(spans=spans),
                           transfers=transfers)


@settings(max_examples=300, deadline=None)
@given(causal_profiles(), st.sampled_from([1_000_000, 2]))
def test_critical_path_matches_full_scan_reference(prof, max_segments):
    crit = critical_path(prof, max_segments=max_segments)
    reference = critical_path_reference(prof, max_segments=max_segments)
    assert (crit.makespan, crit.nranks) == (reference.makespan, reference.nranks)
    assert repr(crit.segments) == repr(reference.segments)
