"""Trace export and breakdown attribution (``prof.export``).

Two consumers of a :class:`repro.prof.Profiler`'s data:

- :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  trace-event JSON format (load in ``chrome://tracing`` or Perfetto).  One
  process per profiled cluster, one thread ("track") per rank plus
  auxiliary ``io``/``wire`` lanes, so the interleaving the paper reasons
  about (packing overlapping the wire, small peers stuck behind large
  ones) is directly visible.

- :func:`breakdown` -- a Fig. 13-style *attribution* report: each
  collective invocation's elapsed simulated time, per rank, decomposed
  into ``pack`` (datatype processing: pack/search/look-ahead/unpack),
  ``compute`` (other CPU), ``wire`` (transfer occupancy not hidden behind
  CPU), and ``wait`` (idle: blocked on peers).  The decomposition uses
  interval-union arithmetic, so the four components sum *exactly* to the
  elapsed time of every row.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.prof.spans import Span

#: ledger/CPU-span names attributed to datatype processing
PACK_NAMES = frozenset({"pack", "search", "lookahead", "unpack"})

Interval = Tuple[float, float]


# -- interval arithmetic -----------------------------------------------------

def _union(intervals: Iterable[Interval]) -> List[Interval]:
    """Merge intervals into a disjoint, sorted union."""
    out: List[Interval] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out

def _length(intervals: Sequence[Interval]) -> float:
    return sum(e - s for s, e in intervals)

def _clip(intervals: Iterable[Interval], lo: float, hi: float) -> List[Interval]:
    return [(max(s, lo), min(e, hi))
            for s, e in intervals if min(e, hi) > max(s, lo)]

def _subtract(intervals: Sequence[Interval], holes: Sequence[Interval]) -> List[Interval]:
    """``union(intervals) \\ union(holes)`` (both must be disjoint unions)."""
    out: List[Interval] = []
    for start, end in intervals:
        pos = start
        for hs, he in holes:
            if he <= pos:
                continue
            if hs >= end:
                break
            if hs > pos:
                out.append((pos, hs))
            pos = max(pos, he)
            if pos >= end:
                break
        if pos < end:
            out.append((pos, end))
    return out


# -- breakdown attribution ---------------------------------------------------

_PACK, _COMPUTE, _WIRE = 0, 1, 2


class _RankIndex:
    """One rank's CPU spans and wire transfers, sorted by start.

    ``reach[i]`` is the largest end among the first ``i + 1`` intervals, so
    it never decreases: every interval before the first ``reach > lo``
    ends at or before ``lo``, and every interval from the first
    ``start >= hi`` on starts at or after ``hi``.  :meth:`window` returns
    the slice between the two -- a superset of the intervals that overlap
    ``[lo, hi)``, which :func:`_clip` then filters exactly as it would
    filter the whole rank.
    """

    __slots__ = ("starts", "reach", "items")

    def __init__(self, items: List[Tuple[float, float, int]]):
        items.sort(key=lambda item: item[0])
        self.items = items
        self.starts = [s for s, _e, _k in items]
        self.reach = list(accumulate((e for _s, e, _k in items), max))

    def window(self, lo: float, hi: float) -> List[Tuple[float, float, int]]:
        first = bisect_right(self.reach, lo)
        return self.items[first:bisect_left(self.starts, hi, first)]


def _rank_index(profiler) -> Dict[int, _RankIndex]:
    """Per-rank :class:`_RankIndex` over closed CPU spans (tagged pack or
    compute by :data:`PACK_NAMES`) and wire transfers; a transfer counts on
    both endpoints, a self-transfer once."""
    items: Dict[int, List[Tuple[float, float, int]]] = {}
    for s in profiler.tracer.spans:
        if s.category == "cpu" and not s.open:
            kind = _PACK if s.name in PACK_NAMES else _COMPUTE
            items.setdefault(s.rank, []).append((s.t_start, s.t_end, kind))
    for ev in getattr(profiler, "transfers", []):
        items.setdefault(ev.src, []).append((ev.t_start, ev.t_end, _WIRE))
        if ev.dst != ev.src:
            items.setdefault(ev.dst, []).append((ev.t_start, ev.t_end, _WIRE))
    return {rank: _RankIndex(lst) for rank, lst in items.items()}


def breakdown(profiler, category: str = "collective") -> List[Dict[str, Any]]:
    """Per-(invocation, rank) wait-vs-transfer attribution rows.

    Every span of ``category`` becomes one row::

        {"op", "rank", "t_start", "elapsed",
         "pack", "compute", "wire", "wait", "attrs"}

    with ``pack + compute + wire + wait == elapsed`` exactly:

    - ``pack``    -- union of dtype CPU spans (pack/search/lookahead/unpack)
      on this rank inside the window,
    - ``compute`` -- union of remaining CPU spans, minus time already
      counted as pack,
    - ``wire``    -- union of wire transfers touching this rank, minus time
      hidden behind CPU (overlap is attributed to the CPU phase -- the
      engine's whole point is overlapping packing with the wire),
    - ``wait``    -- the residual: blocked on peers with nothing local
      happening (the skew/serialisation cost of sections 3.2 and 4.2).
    """
    tracer = profiler.tracer
    targets = [s for s in tracer.spans if s.category == category and not s.open]
    if not targets:
        return []
    index = _rank_index(profiler)

    rows: List[Dict[str, Any]] = []
    for span in targets:
        rank = span.rank
        lo, hi = span.t_start, span.t_end
        elapsed = hi - lo
        window = index[rank].window(lo, hi) if rank in index else ()
        pack_iv, comp_iv, wire_iv = (
            _union(_clip([(s, e) for s, e, k in window if k == kind], lo, hi))
            for kind in (_PACK, _COMPUTE, _WIRE))
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


def aggregate_breakdown(rows: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Sum attribution rows per op: totals plus percentage shares."""
    agg: Dict[str, Dict[str, float]] = {}
    for row in rows:
        a = agg.setdefault(row["op"], {
            "calls": 0, "elapsed": 0.0, "pack": 0.0, "compute": 0.0,
            "wire": 0.0, "wait": 0.0,
        })
        a["calls"] += 1
        for k in ("elapsed", "pack", "compute", "wire", "wait"):
            a[k] += row[k]
    out = []
    for op in sorted(agg):
        a = agg[op]
        total = a["elapsed"] or 1.0
        out.append({
            "op": op, "calls": a["calls"], "elapsed": a["elapsed"],
            "pack": a["pack"], "compute": a["compute"],
            "wire": a["wire"], "wait": a["wait"],
            "pack_pct": 100.0 * a["pack"] / total,
            "compute_pct": 100.0 * a["compute"] / total,
            "wire_pct": 100.0 * a["wire"] / total,
            "wait_pct": 100.0 * a["wait"] / total,
        })
    return out


def render_breakdown(rows: Iterable[Dict[str, Any]]) -> str:
    """A Fig. 13-style text table from :func:`breakdown` rows, or from
    their :func:`aggregate_breakdown` when the caller already has it."""
    rows = list(rows)
    agg = rows if rows and "pack_pct" in rows[0] else aggregate_breakdown(rows)
    header = f"{'op':<22} {'calls':>6} {'elapsed(s)':>12} " \
             f"{'pack%':>7} {'comp%':>7} {'wire%':>7} {'wait%':>7}"
    lines = [header, "-" * len(header)]
    for a in agg:
        lines.append(
            f"{a['op']:<22} {a['calls']:>6} {a['elapsed']:>12.3e} "
            f"{a['pack_pct']:>7.1f} {a['compute_pct']:>7.1f} "
            f"{a['wire_pct']:>7.1f} {a['wait_pct']:>7.1f}"
        )
    return "\n".join(lines)


def validate_breakdown(rows: Iterable[Dict[str, Any]], rel_tol: float = 1e-9) -> bool:
    """True iff every row's components sum to its elapsed time within
    ``rel_tol``.  The interval-union decomposition is exact by
    construction, so the default only forgives float rounding."""
    for row in rows:
        total = row["pack"] + row["compute"] + row["wire"] + row["wait"]
        if abs(total - row["elapsed"]) > rel_tol * max(row["elapsed"], 1e-30):
            return False
    return True


# -- Chrome trace-event JSON -------------------------------------------------

def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def chrome_trace(profilers, time_scale: float = 1e6) -> Dict[str, Any]:
    """The Chrome trace-event JSON object for one or more profilers.

    Timestamps are simulated seconds scaled by ``time_scale`` (default:
    microseconds, the format's native unit).  Each profiler becomes a
    process; each span track becomes a named thread.
    """
    if not isinstance(profilers, (list, tuple)):
        profilers = [profilers]
    events: List[Dict[str, Any]] = []
    for pid, prof in enumerate(profilers):
        tracer = prof.tracer
        tracks = tracer.tracks()
        wire_tracks = sorted({("wire", ev.src) for ev in getattr(prof, "transfers", [])})
        tids: Dict[Any, int] = {}
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": getattr(prof, "label", None) or f"cluster {pid}"},
        })
        for track in tracks:
            tids[track] = len(tids)
            rank, lane = track
            label = f"rank {rank}" if lane == "main" else f"rank {rank} [{lane}]"
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tids[track], "args": {"name": label},
            })
        for wt in wire_tracks:
            tids[wt] = len(tids)
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tids[wt], "args": {"name": f"wire from rank {wt[1]}"},
            })
        for span in tracer.spans:
            if span.open:
                continue
            events.append({
                "ph": "X", "name": span.name, "cat": span.category,
                "pid": pid, "tid": tids[span.track],
                "ts": span.t_start * time_scale,
                "dur": span.duration * time_scale,
                "args": _json_safe(span.attrs),
            })
        for span in tracer.instants:
            events.append({
                "ph": "i", "s": "t", "name": span.name, "cat": span.category,
                "pid": pid, "tid": tids.get(span.track, 0),
                "ts": span.t_start * time_scale,
                "args": _json_safe(span.attrs),
            })
        for ev in getattr(prof, "transfers", []):
            args = {"nbytes": ev.nbytes, "tag": ev.tag}
            if getattr(ev, "msg_id", None) is not None:
                args["msg_id"] = ev.msg_id
            events.append({
                "ph": "X", "name": f"xfer {ev.src}->{ev.dst}", "cat": "wire",
                "pid": pid, "tid": tids[("wire", ev.src)],
                "ts": ev.t_start * time_scale,
                "dur": (ev.t_end - ev.t_start) * time_scale,
                "args": args,
            })
        events.extend(_flow_events(prof, pid, tids, time_scale))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _flow_events(prof, pid: int, tids: Dict[Any, int],
                 time_scale: float) -> List[Dict[str, Any]]:
    """Flow events (``ph: "s"``/``"t"``/``"f"``) tying each message's send
    span to its wire transfers and receive-side landing.

    Every p2p message carries a causal ``msg_id`` (threaded through
    ``mpi/comm.py`` / ``simtime/network.py``), so Perfetto can draw the
    arrow from the ``isend`` span through the wire chunk(s) to the
    receiver's unpack (or, for contiguous payloads, the arrival point on
    the receiver's main track).
    """
    tracer = prof.tracer
    send_spans: Dict[int, Span] = {}
    unpack_spans: Dict[int, Span] = {}
    for span in tracer.spans:
        if span.open:
            continue
        mid = span.attrs.get("msg_id")
        if mid is None:
            continue
        if span.category == "p2p":
            send_spans.setdefault(mid, span)
        elif span.category == "cpu" and span.name == "unpack":
            unpack_spans.setdefault(mid, span)
    chunks: Dict[int, List[Any]] = {}
    for ev in getattr(prof, "transfers", []):
        mid = getattr(ev, "msg_id", None)
        if mid is not None and ev.src != ev.dst:
            chunks.setdefault(mid, []).append(ev)

    events: List[Dict[str, Any]] = []
    for mid in sorted(chunks):
        evs = sorted(chunks[mid], key=lambda e: e.t_start)
        # under the reliable transport the zero-byte ack rides the same
        # msg_id in the reverse direction; the payload direction is the
        # first chunk's
        src, dst = evs[0].src, evs[0].dst
        evs = [e for e in evs if e.src == src and e.dst == dst]
        fid = f"msg{mid}"
        send = send_spans.get(mid)
        if send is not None:
            start_tid, start_ts = tids.get(send.track, 0), send.t_start
        else:
            start_tid = tids.get(("wire", src), 0)
            start_ts = evs[0].t_start
        events.append({
            "ph": "s", "id": fid, "name": "msg", "cat": "flow",
            "pid": pid, "tid": start_tid, "ts": start_ts * time_scale,
        })
        events.append({
            "ph": "t", "id": fid, "name": "msg", "cat": "flow",
            "pid": pid, "tid": tids.get(("wire", src), 0),
            "ts": evs[0].t_start * time_scale,
        })
        unpack = unpack_spans.get(mid)
        if unpack is not None:
            end_tid, end_ts = tids.get(unpack.track, 0), unpack.t_start
        else:
            end_tid = tids.get((dst, "main"), 0)
            end_ts = evs[-1].t_end
        events.append({
            "ph": "f", "bp": "e", "id": fid, "name": "msg", "cat": "flow",
            "pid": pid, "tid": end_tid, "ts": end_ts * time_scale,
        })
    return events


def write_chrome_trace(path: str, profilers) -> Dict[str, Any]:
    """Serialise :func:`chrome_trace` to ``path``; returns the object.

    The bytes are those of ``json.dumps(obj)``, but each event goes through
    the C encoder on its own (``json.dump`` streams through the pure-Python
    one), and the whole document is never held as one string.
    """
    obj = chrome_trace(profilers)
    with open(path, "w") as fh:
        fh.write('{"traceEvents": [')
        sep = ""
        for event in obj["traceEvents"]:
            fh.write(sep)
            fh.write(json.dumps(event))
            sep = ", "
        fh.write('], "displayTimeUnit": %s}' % json.dumps(obj["displayTimeUnit"]))
    return obj


def wait_for_peers_report(rows: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Skew summary across ranks per op: who idles behind whom.

    For each op, reports min/max/mean wait share across ranks -- the
    quantity the paper's Fig. 15 skew discussion attributes to zero-byte
    synchronisation and serialized large blocks.
    """
    per_op: Dict[str, List[float]] = {}
    for row in rows:
        share = row["wait"] / row["elapsed"] if row["elapsed"] > 0 else 0.0
        per_op.setdefault(row["op"], []).append(share)
    out = {}
    for op, shares in sorted(per_op.items()):
        out[op] = {
            "rows": len(shares),
            "min_wait_share": min(shares),
            "max_wait_share": max(shares),
            "mean_wait_share": sum(shares) / len(shares),
        }
    return out


__all__ = [
    "PACK_NAMES",
    "aggregate_breakdown",
    "breakdown",
    "chrome_trace",
    "render_breakdown",
    "validate_breakdown",
    "wait_for_peers_report",
    "write_chrome_trace",
]
