"""Unit tests for trace export and breakdown attribution (``repro.prof.export``)."""

import json
from types import SimpleNamespace

import pytest

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
from repro.prof.spans import Tracer


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
