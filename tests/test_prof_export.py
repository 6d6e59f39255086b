"""Unit tests for trace export and breakdown attribution (``repro.prof.export``)."""

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prof import export
from repro.prof.export import (
    PACK_NAMES,
    aggregate_breakdown,
    breakdown,
    chrome_trace,
    render_breakdown,
    validate_breakdown,
    wait_for_peers_report,
    write_chrome_trace,
)
from repro.prof.spans import Span, Tracer


class FakeEngine:
    def __init__(self):
        self.now = 0.0


def xfer(src, dst, t0, t1, nbytes=64, tag=0):
    return SimpleNamespace(src=src, dst=dst, t_start=t0, t_end=t1,
                           nbytes=nbytes, tag=tag)


def scripted_profiler():
    """A hand-built profile on rank 0:

    - one ``collective`` span covering [0, 10],
    - cpu ``pack``  [0, 2]    -> pack    = 2
    - cpu ``compute`` [2, 3]  -> compute = 1
    - wire transfer [2.5, 6]  -> wire    = 3   (2.5..3 hidden behind CPU)
    - residual                -> wait    = 4
    """
    clock = FakeEngine()
    tracer = Tracer(clock)
    coll = tracer.span("collective", "allgatherv", 0, algorithm="ring")
    sp = coll.__enter__()
    with tracer.span("cpu", "pack", 0):
        clock.now = 2.0
    with tracer.span("cpu", "compute", 0):
        clock.now = 3.0
    clock.now = 10.0
    coll.__exit__(None, None, None)
    prof = SimpleNamespace(
        tracer=tracer,
        transfers=[xfer(0, 1, 2.5, 6.0, nbytes=640)],
        label="test cluster",
    )
    return prof, sp


def test_interval_helpers():
    assert export._union([(0, 1), (0.5, 2), (3, 4)]) == [(0, 2), (3, 4)]
    assert export._union([(1, 1)]) == []          # empty intervals dropped
    assert export._length([(0, 2), (3, 4)]) == 3
    assert export._clip([(0, 10)], 2, 5) == [(2, 5)]
    assert export._clip([(0, 1)], 2, 5) == []
    assert export._subtract([(0, 10)], [(2, 3), (5, 7)]) == [
        (0, 2), (3, 5), (7, 10),
    ]
    assert export._subtract([(0, 4)], [(0, 10)]) == []


def test_breakdown_attribution_sums_exactly():
    prof, _sp = scripted_profiler()
    rows = breakdown(prof, "collective")
    assert len(rows) == 1
    row = rows[0]
    assert row["op"] == "allgatherv"
    assert row["rank"] == 0
    assert row["elapsed"] == pytest.approx(10.0)
    assert row["pack"] == pytest.approx(2.0)
    assert row["compute"] == pytest.approx(1.0)
    assert row["wire"] == pytest.approx(3.0)      # 2.5..3 hidden behind CPU
    assert row["wait"] == pytest.approx(4.0)
    assert row["pack"] + row["compute"] + row["wire"] + row["wait"] == \
        pytest.approx(row["elapsed"])
    assert row["attrs"]["algorithm"] == "ring"
    assert validate_breakdown(rows)


def test_breakdown_skips_open_spans_and_other_categories():
    clock = FakeEngine()
    tracer = Tracer(clock)
    tracer.span("collective", "bcast", 0).__enter__()   # never closed
    with tracer.span("p2p", "isend", 0):
        clock.now = 1.0
    prof = SimpleNamespace(tracer=tracer, transfers=[])
    assert breakdown(prof, "collective") == []
    assert [r["op"] for r in breakdown(prof, "p2p")] == ["isend"]


def test_validate_breakdown_catches_drift():
    rows = [{"op": "x", "elapsed": 10.0, "pack": 2.0, "compute": 1.0,
             "wire": 3.0, "wait": 4.0}]
    assert validate_breakdown(rows)
    rows[0]["wait"] = 3.0                          # 10% short
    assert not validate_breakdown(rows)
    assert validate_breakdown(rows, rel_tol=0.2)
    rows[0]["wait"] = 3.95                         # 0.5% short
    assert not validate_breakdown(rows)
    rows[0]["wait"] = 4.0 + 1e-15                  # float rounding only
    assert validate_breakdown(rows)


def test_aggregate_and_render():
    prof, _sp = scripted_profiler()
    rows = breakdown(prof, "collective")
    agg = aggregate_breakdown(rows)
    assert len(agg) == 1
    a = agg[0]
    assert a["op"] == "allgatherv"
    assert a["calls"] == 1
    assert a["pack_pct"] == pytest.approx(20.0)
    assert a["wait_pct"] == pytest.approx(40.0)
    text = render_breakdown(rows)
    assert "allgatherv" in text
    assert "wait%" in text
    assert render_breakdown(agg) == text   # pre-aggregated rows render alike


def test_wait_for_peers_report():
    rows = [
        {"op": "allgatherv", "elapsed": 10.0, "wait": 4.0},
        {"op": "allgatherv", "elapsed": 10.0, "wait": 8.0},
        {"op": "barrier", "elapsed": 0.0, "wait": 0.0},
    ]
    rep = wait_for_peers_report(rows)
    assert rep["allgatherv"]["rows"] == 2
    assert rep["allgatherv"]["min_wait_share"] == pytest.approx(0.4)
    assert rep["allgatherv"]["max_wait_share"] == pytest.approx(0.8)
    assert rep["allgatherv"]["mean_wait_share"] == pytest.approx(0.6)
    assert rep["barrier"]["mean_wait_share"] == 0.0


def test_chrome_trace_structure():
    prof, _sp = scripted_profiler()
    obj = chrome_trace(prof)
    events = obj["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    slices = [e for e in events if e["ph"] == "X"]
    assert {"process_name", "thread_name"} <= {e["name"] for e in meta}
    # process named after the profiler label
    pname = next(e for e in meta if e["name"] == "process_name")
    assert pname["args"]["name"] == "test cluster"
    # 3 spans + 1 wire transfer, ts/dur in microseconds
    assert len(slices) == 4
    coll = next(e for e in slices if e["name"] == "allgatherv")
    assert coll["ts"] == pytest.approx(0.0)
    assert coll["dur"] == pytest.approx(10.0 * 1e6)
    wire = next(e for e in slices if e["cat"] == "wire")
    assert wire["name"] == "xfer 0->1"
    assert wire["args"]["nbytes"] == 640
    # every slice points at a declared thread
    tids = {e["tid"] for e in meta if e["name"] == "thread_name"}
    assert all(e["tid"] in tids for e in slices)


def test_chrome_trace_multiple_profilers_get_distinct_pids():
    p1, _ = scripted_profiler()
    p2, _ = scripted_profiler()
    obj = chrome_trace([p1, p2])
    pids = {e["pid"] for e in obj["traceEvents"]}
    assert pids == {0, 1}


def test_write_chrome_trace_roundtrip(tmp_path):
    prof, _sp = scripted_profiler()
    path = tmp_path / "trace.json"
    obj = write_chrome_trace(str(path), prof)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(obj))
    assert loaded["displayTimeUnit"] == "ms"


def test_json_safe_attrs():
    clock = FakeEngine()
    tracer = Tracer(clock)
    with tracer.span("cpu", "pack", 0, shape=(4, 4), dtype=object()):
        pass
    prof = SimpleNamespace(tracer=tracer, transfers=[])
    obj = chrome_trace(prof)
    json.dumps(obj)  # must not raise


def test_pack_names_cover_the_ledger_categories():
    assert PACK_NAMES == {"pack", "search", "lookahead", "unpack"}


# -- flow events (send -> wire -> unpack arrows) -----------------------------

def messaging_profiler():
    """rank 0 isends (msg_id 7) at [0, 1]; wire [1, 5]; rank 1 unpacks
    [5, 6] -- the full causal chain of one typed message."""
    clock = FakeEngine()
    tracer = Tracer(clock)
    with tracer.span("p2p", "isend", 0, msg_id=7):
        clock.now = 1.0
    clock.now = 5.0
    with tracer.span("cpu", "unpack", 1, lane="io", msg_id=7):
        clock.now = 6.0
    transfer = SimpleNamespace(src=0, dst=1, t_start=1.0, t_end=5.0,
                               nbytes=640, tag=0, msg_id=7)
    return SimpleNamespace(tracer=tracer, transfers=[transfer], label=None)


def test_flow_events_tie_send_wire_and_unpack():
    prof = messaging_profiler()
    events = chrome_trace(prof)["traceEvents"]
    flows = [e for e in events if e.get("cat") == "flow"]
    assert [e["ph"] for e in flows] == ["s", "t", "f"]
    assert {e["id"] for e in flows} == {"msg7"}
    start, step, finish = flows
    meta = {e["args"]["name"]: e["tid"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"}
    assert start["tid"] == meta["rank 0"]           # the isend span's track
    assert start["ts"] == pytest.approx(0.0)
    assert step["tid"] == meta["wire from rank 0"]
    assert step["ts"] == pytest.approx(1.0 * 1e6)
    assert finish["tid"] == meta["rank 1 [io]"]     # the unpack span's track
    assert finish["ts"] == pytest.approx(5.0 * 1e6)
    assert finish["bp"] == "e"
    # the transfer slice itself carries the causal id too
    wire = next(e for e in events if e.get("cat") == "wire" and e["ph"] == "X")
    assert wire["args"]["msg_id"] == 7


def test_flow_events_skip_unidentified_and_self_transfers():
    clock = FakeEngine()
    tracer = Tracer(clock)
    with tracer.span("cpu", "compute", 0):
        clock.now = 1.0
    prof = SimpleNamespace(tracer=tracer, transfers=[
        xfer(0, 1, 0.0, 1.0),                       # no msg_id: raw RMA
        SimpleNamespace(src=2, dst=2, t_start=0.0, t_end=1.0,
                        nbytes=8, tag=0, msg_id=9),  # self-transfer
    ])
    events = chrome_trace(prof)["traceEvents"]
    assert [e for e in events if e.get("cat") == "flow"] == []


def test_flow_events_ignore_reverse_direction_ack():
    """Under the reliable transport the zero-byte ack shares the payload's
    msg_id in the reverse direction; the arrow must follow the payload."""
    prof = messaging_profiler()
    prof.transfers.append(SimpleNamespace(
        src=1, dst=0, t_start=6.0, t_end=6.5, nbytes=0, tag=0, msg_id=7))
    flows = [e for e in chrome_trace(prof)["traceEvents"]
             if e.get("cat") == "flow"]
    assert [e["ph"] for e in flows] == ["s", "t", "f"]
    finish = flows[-1]
    assert finish["ts"] == pytest.approx(5.0 * 1e6)  # unpack, not the ack


# -- degenerate runs through every exporter ----------------------------------

def empty_profiler():
    return SimpleNamespace(tracer=Tracer(FakeEngine()), transfers=[],
                           label=None)


def test_exporters_on_empty_profiler(tmp_path):
    prof = empty_profiler()
    assert breakdown(prof, "collective") == []
    assert validate_breakdown([])
    assert aggregate_breakdown([]) == []
    assert wait_for_peers_report([]) == {}
    obj = chrome_trace(prof)
    assert [e for e in obj["traceEvents"] if e["ph"] != "M"] == []
    path = tmp_path / "empty.json"
    write_chrome_trace(str(path), prof)
    assert json.loads(path.read_text())["traceEvents"] is not None


def test_chrome_trace_empty_profiler_list():
    obj = chrome_trace([])
    assert obj["traceEvents"] == []
    json.dumps(obj)


def test_zero_span_rank_still_gets_a_thread():
    """A rank that only appears as a transfer endpoint (no spans at all)
    must not crash the exporters."""
    clock = FakeEngine()
    tracer = Tracer(clock)
    coll = tracer.span("collective", "allgatherv", 0)
    coll.__enter__()
    clock.now = 4.0
    coll.__exit__(None, None, None)
    prof = SimpleNamespace(tracer=tracer,
                           transfers=[xfer(1, 0, 1.0, 2.0)], label=None)
    rows = breakdown(prof, "collective")
    assert len(rows) == 1
    assert rows[0]["wire"] == pytest.approx(1.0)
    events = chrome_trace(prof)["traceEvents"]
    wire = next(e for e in events if e.get("cat") == "wire")
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "wire from rank 1" in names
    assert wire["dur"] == pytest.approx(1.0 * 1e6)


def test_single_event_trace():
    """The minimal non-empty profile: exactly one instantaneous-ish span."""
    clock = FakeEngine()
    tracer = Tracer(clock)
    coll = tracer.span("collective", "barrier", 0)
    coll.__enter__()
    clock.now = 1e-9
    coll.__exit__(None, None, None)
    prof = SimpleNamespace(tracer=tracer, transfers=[], label=None)
    rows = breakdown(prof, "collective")
    assert len(rows) == 1
    assert rows[0]["elapsed"] == pytest.approx(1e-9)
    assert rows[0]["wait"] == pytest.approx(1e-9)
    assert validate_breakdown(rows)
    slices = [e for e in chrome_trace(prof)["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 1
    assert slices[0]["name"] == "barrier"


# -- the windowed breakdown against the quadratic definition ----------------

def breakdown_reference(profiler, category="collective"):
    """The pre-index breakdown, which clips every CPU span and transfer on
    the rank for every target: the differential oracle."""
    _union, _clip, _length, _subtract = (
        export._union, export._clip, export._length, export._subtract)
    tracer = profiler.tracer
    transfers = getattr(profiler, "transfers", [])
    targets = [s for s in tracer.spans if s.category == category and not s.open]
    if not targets:
        return []

    # pre-index CPU spans and transfers by rank
    cpu_by_rank = {}
    for s in tracer.spans:
        if s.category == "cpu" and not s.open:
            cpu_by_rank.setdefault(s.rank, []).append(s)
    wire_by_rank = {}
    for ev in transfers:
        wire_by_rank.setdefault(ev.src, []).append((ev.t_start, ev.t_end))
        if ev.dst != ev.src:
            wire_by_rank.setdefault(ev.dst, []).append((ev.t_start, ev.t_end))

    rows = []
    for span in targets:
        rank = span.rank
        lo, hi = span.t_start, span.t_end
        elapsed = hi - lo
        cpu_spans = cpu_by_rank.get(rank, [])
        pack_iv = _union(_clip(((s.t_start, s.t_end) for s in cpu_spans
                                if s.name in PACK_NAMES), lo, hi))
        comp_iv = _union(_clip(((s.t_start, s.t_end) for s in cpu_spans
                                if s.name not in PACK_NAMES), lo, hi))
        wire_iv = _union(_clip(wire_by_rank.get(rank, ()), lo, hi))
        pack = _length(pack_iv)
        compute = _length(_subtract(comp_iv, pack_iv))
        cpu_iv = _union(pack_iv + comp_iv)
        wire = _length(_subtract(wire_iv, cpu_iv))
        busy = _length(_union(cpu_iv + wire_iv))
        wait = max(0.0, elapsed - busy)
        rows.append({
            "op": span.name,
            "rank": rank,
            "t_start": lo,
            "elapsed": elapsed,
            "pack": pack,
            "compute": compute,
            "wire": wire,
            "wait": wait,
            "attrs": dict(span.attrs),
        })
    return rows


#: a coarse grid of inexact binary fractions, so that intervals often share
#: endpoints (a span ending exactly at a target's start, starting exactly at
#: its end, zero-length spans) and sums round
_TIMES = st.integers(0, 12).map(lambda k: k * 0.1)

#: CPU spans live on ranks 0-2; rank 3 only has targets and transfers
_CPU_RANKS, _ALL_RANKS = st.integers(0, 2), st.integers(0, 3)


@st.composite
def _interval(draw):
    t0, t1 = sorted((draw(_TIMES), draw(_TIMES)))
    return t0, t1


@st.composite
def attribution_profiles(draw):
    """A profile of targets, nested/overlapping CPU spans and transfers
    (self-transfers included) over a few ranks; some spans stay open."""
    spans = []

    def add(category, name, rank):
        t0, t1 = draw(_interval())
        if draw(st.integers(0, 9)) == 0:
            t1 = None                                    # still open
        spans.append(Span(id=len(spans), parent=None, category=category,
                          name=name, rank=rank, track=(rank, "main"),
                          t_start=t0, t_end=t1, attrs={"i": len(spans)}))

    for _ in range(draw(st.integers(0, 6))):
        add(draw(st.sampled_from(["collective", "p2p"])),
            draw(st.sampled_from(["allgatherv", "isend"])), draw(_ALL_RANKS))
    for _ in range(draw(st.integers(0, 14))):
        add("cpu", draw(st.sampled_from(sorted(PACK_NAMES) + ["compute"])),
            draw(_CPU_RANKS))
    spans = draw(st.permutations(spans))
    transfers = [xfer(draw(_ALL_RANKS), draw(_ALL_RANKS), *draw(_interval()))
                 for _ in range(draw(st.integers(0, 8)))]
    return SimpleNamespace(tracer=SimpleNamespace(spans=spans),
                           transfers=transfers)


@settings(max_examples=300, deadline=None)
@given(attribution_profiles(), st.sampled_from(["collective", "p2p", "cpu"]))
def test_breakdown_matches_quadratic_reference_exactly(prof, category):
    rows = breakdown(prof, category)
    reference = breakdown_reference(prof, category)
    assert rows == reference
    assert repr(rows) == repr(reference)                 # bit for bit
    assert validate_breakdown(rows)


def test_breakdown_boundary_touching_spans_are_excluded():
    """Spans ending exactly at the target's start or starting exactly at
    its end contribute nothing; a zero-length span inside contributes
    nothing; a rank with transfers but no CPU spans still gets its wire."""
    def span(i, category, name, rank, t0, t1):
        return Span(id=i, parent=None, category=category, name=name,
                    rank=rank, track=(rank, "main"), t_start=t0, t_end=t1)

    spans = [
        span(0, "collective", "allgatherv", 0, 0.3, 0.7),
        span(1, "cpu", "pack", 0, 0.1, 0.3),
        span(2, "cpu", "compute", 0, 0.7, 0.9),
        span(3, "cpu", "pack", 0, 0.5, 0.5),
        span(4, "collective", "allgatherv", 1, 0.3, 0.7),
    ]
    prof = SimpleNamespace(tracer=SimpleNamespace(spans=spans), transfers=[
        xfer(1, 1, 0.4, 0.6), xfer(0, 1, 0.0, 0.3), xfer(1, 0, 0.7, 1.0)])
    rows = breakdown(prof)
    assert rows == breakdown_reference(prof)
    assert [(r["pack"], r["compute"], r["wire"]) for r in rows] == [
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.6 - 0.4)]


# -- the trace file is json.dumps of the trace object ------------------------

def test_write_chrome_trace_bytes_equal_json_dumps(tmp_path):
    """Several profilers, flow events and attrs that need ``_json_safe``
    (tuples, non-str keys, reprs, non-finite floats): the streamed file
    is byte for byte ``json.dumps(chrome_trace(...))``."""
    prof, _sp = scripted_profiler()
    marker = object()
    with prof.tracer.span("cpu", "pack", 0, shape=(4, (2, 2)),
                          table={1: "a", (2, 3): [marker]}, dtype=marker,
                          ratio=float("inf"), note="caf\u00e9 \"q\""):
        pass
    profs = [prof, messaging_profiler(), empty_profiler()]
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), profs)
    assert path.read_bytes() == json.dumps(chrome_trace(profs)).encode()
    assert any(e.get("cat") == "flow" for e in chrome_trace(profs)["traceEvents"])
    empty = tmp_path / "empty.json"
    write_chrome_trace(str(empty), [])
    assert empty.read_bytes() == json.dumps(chrome_trace([])).encode()
