"""Causal critical-path analysis (``prof.critical``).

The paper's argument is an *attribution* exercise: it explains end-to-end
slowdowns by naming the rank and the operation responsible (the serialised
outlier block of section 3.2, the ring hop stuck behind one large peer, the
zero-byte synchronisation skew).  :func:`critical_path` answers the same
question for any profiled run: *which rank's which work made the run as
long as it was?*

The analysis walks a causal event graph built from data the
:class:`repro.prof.Profiler` already records:

- **program-order edges** within each rank: the CPU spans (pack / search /
  look-ahead / unpack / compute) stamped by the instrumented stack,
- **cross-rank message edges**: every wire transfer carries the causal
  ``msg_id`` assigned by the p2p layer, so an arrival that ended a rank's
  wait hands the walk over to the *sender* at the moment the payload
  entered the wire,
- **collective entry/exit edges** arise for free: collectives are built
  from the same p2p transfers (including zero-byte synchronisations, which
  still pay ``alpha`` and therefore appear as wire intervals).

Starting from the event that ends the run, the walk moves backwards in
time, at every step asking "what was the last thing that had to finish for
this rank to be here?": a local busy interval (attributed to ``pack`` or
``compute``), an incoming transfer (attributed to ``wire``, then *jump* to
the sender), or nothing (attributed to ``wait`` -- genuine idling that no
local or remote event explains, e.g. blocked behind a port held by third
parties).  The resulting segments tile ``[0, makespan]`` exactly, so

    sum(seg.duration) == makespan

holds by construction -- the identity the acceptance tests pin.  Straggler
ranks are flagged by pointing the paper's section 4.2.1 outlier detector
(Floyd-Rivest ``k_select`` over a value set, Eq. 1) at per-rank
*time-on-critical-path* instead of communication volume.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.prof.export import PACK_NAMES

#: segment categories, same vocabulary as :func:`repro.prof.export.breakdown`
SEGMENT_CATEGORIES = ("pack", "compute", "wire", "wait")

#: span categories eligible as "source call sites" for attribution
_OP_CATEGORIES = ("collective", "petsc", "solver", "p2p")

#: default outlier parameters (mirrors CostModel.outlier_* for volumes)
DEFAULT_OUTLIER_FRACTION = 0.25
DEFAULT_OUTLIER_THRESHOLD = 4.0


@dataclass(frozen=True)
class Segment:
    """One stretch of the critical path: ``[t_start, t_end]`` on ``rank``.

    ``category`` is one of :data:`SEGMENT_CATEGORIES`; ``name`` names the
    concrete activity (the CPU span name, ``xfer src->dst``, or ``wait``);
    ``op`` is the innermost enclosing operation span on the rank's main
    track (``allgatherv``, ``vecscatter``, ...), or ``"(program)"`` when
    the segment lies outside any instrumented operation.
    """

    rank: int
    t_start: float
    t_end: float
    category: str
    name: str
    op: str
    msg_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class _Busy:
    """One busy interval on a rank (CPU span or wire transfer)."""

    __slots__ = ("t_start", "t_end", "category", "name", "src", "msg_id")

    def __init__(self, t_start: float, t_end: float, category: str,
                 name: str, src: Optional[int] = None,
                 msg_id: Optional[int] = None):
        self.t_start = t_start
        self.t_end = t_end
        self.category = category
        self.name = name
        #: sender rank for arrival intervals (wire, dst side); None otherwise
        self.src = src
        self.msg_id = msg_id


@dataclass
class CriticalPath:
    """The critical path of one profiled run (see module docstring)."""

    makespan: float
    nranks: int
    segments: List[Segment]
    label: Optional[str] = None

    # -- aggregation ---------------------------------------------------------

    def total(self) -> float:
        return sum(s.duration for s in self.segments)

    def by_category(self) -> Dict[str, float]:
        out = {c: 0.0 for c in SEGMENT_CATEGORIES}
        for s in self.segments:
            out[s.category] += s.duration
        return out

    def by_rank(self) -> Dict[int, Dict[str, float]]:
        """Per-rank time on the critical path, split by category."""
        out: Dict[int, Dict[str, float]] = {}
        for s in self.segments:
            row = out.setdefault(
                s.rank, {"total": 0.0, **{c: 0.0 for c in SEGMENT_CATEGORIES}})
            row["total"] += s.duration
            row[s.category] += s.duration
        return out

    def by_op(self) -> Dict[str, Dict[str, float]]:
        """Per-call-site time on the critical path, split by category."""
        out: Dict[str, Dict[str, float]] = {}
        for s in self.segments:
            row = out.setdefault(
                s.op, {"total": 0.0, **{c: 0.0 for c in SEGMENT_CATEGORIES}})
            row["total"] += s.duration
            row[s.category] += s.duration
        return out

    def stragglers(self, outlier_fraction: float = DEFAULT_OUTLIER_FRACTION,
                   threshold: float = DEFAULT_OUTLIER_THRESHOLD) -> Dict[str, Any]:
        """Straggler flagging via the paper's Eq. 1 outlier detector.

        The value set is each rank's time on the critical path (ranks never
        on the path contribute 0).  A ratio above ``threshold`` means a
        small subset of ranks carries a disproportionate share of the
        path -- those ranks (everything strictly above the bulk edge) are
        the stragglers the paper's section 4.2 detector would name.

        Caveat: in a perfectly symmetric run every chain through the run
        ties, the walk picks one arbitrarily, and its ranks soak up the
        whole path -- concentration alone is then meaningless, which is
        why the report keeps the raw ``times`` alongside the verdict.
        """
        from repro.mpi.outlier import outlier_ratio

        times = [0.0] * self.nranks
        for s in self.segments:
            if 0 <= s.rank < self.nranks:
                times[s.rank] += s.duration
        result: Dict[str, Any] = {
            "times": times,
            "outlier_fraction": outlier_fraction,
            "threshold": threshold,
            "ratio": 1.0,
            "detected": False,
            "ranks": [],
        }
        if self.nranks < 2 or not any(times):
            return result
        ratio = outlier_ratio(times, outlier_fraction)
        result["ratio"] = ratio
        if ratio > threshold:
            vmax = max(times)
            # everything strictly above the bulk edge is an outlier; the
            # bulk edge is vmax / ratio by Eq. 1
            edge = vmax / ratio if ratio not in (0.0, float("inf")) else 0.0
            result["detected"] = True
            result["ranks"] = [r for r, t in enumerate(times) if t > edge]
        return result

    def render(self, top: int = 10) -> str:
        """A human-readable digest: totals, top call sites, stragglers."""
        cats = self.by_category()
        total = self.total() or 1.0
        lines = [
            f"critical path: makespan {self.makespan:.4g} s over "
            f"{len(self.segments)} segment(s), {self.nranks} rank(s)",
            "  " + "  ".join(f"{c} {cats[c]:.3g}s ({100 * cats[c] / total:.0f}%)"
                             for c in SEGMENT_CATEGORIES),
        ]
        ops = sorted(self.by_op().items(), key=lambda kv: -kv[1]["total"])
        for op, row in ops[:top]:
            lines.append(f"  {op:<24} {row['total']:.3g}s "
                         f"({100 * row['total'] / total:.0f}% of path)")
        strag = self.stragglers()
        if strag["detected"]:
            lines.append(f"  stragglers: rank(s) {strag['ranks']} "
                         f"(ratio {strag['ratio']:.2f} > "
                         f"{strag['threshold']:g})")
        else:
            lines.append(f"  stragglers: none (ratio {strag['ratio']:.2f})")
        return "\n".join(lines)


# -- graph construction ------------------------------------------------------

#: one rank's busy intervals sorted by ``(t_end, t_start)``, their ends,
#: and ``floor[k]`` = the earliest start among ``intervals[k:]``
_RankBusy = Tuple[List[_Busy], List[float], List[float]]

#: one rank's operation windows sorted by start, their starts, and
#: ``reach[k]`` = the latest end among ``windows[:k + 1]``
_RankOps = Tuple[List[Tuple[float, float, int, str]], List[float], List[float]]

_NO_BUSY: _RankBusy = ([], [], [])
_NO_OPS: _RankOps = ([], [], [])


def _busy_intervals(profiler) -> Dict[int, _RankBusy]:
    """Per-rank busy intervals: CPU spans plus wire transfers.

    A transfer contributes an interval to *both* endpoints: on the
    destination it is an arrival (jumping the walk to the sender), on the
    source it is send-port occupancy (no jump).  Self-transfers (local
    copies) stay local.

    ``ends`` and ``floor`` both never decrease, so the intervals ending at
    or after ``t`` and starting before it lie in the slice from
    ``bisect_left(ends, t)`` to ``bisect_left(floor, t)``.
    """
    by_rank: Dict[int, List[_Busy]] = {}
    for s in profiler.tracer.spans:
        if s.category != "cpu" or s.open or s.t_end <= s.t_start:
            continue
        cat = "pack" if s.name in PACK_NAMES else "compute"
        by_rank.setdefault(s.rank, []).append(
            _Busy(s.t_start, s.t_end, cat, s.name,
                  msg_id=s.attrs.get("msg_id")))
    for ev in getattr(profiler, "transfers", ()):
        if ev.t_end <= ev.t_start:
            continue
        name = f"xfer {ev.src}->{ev.dst}"
        by_rank.setdefault(ev.dst, []).append(
            _Busy(ev.t_start, ev.t_end, "wire", name,
                  src=ev.src if ev.src != ev.dst else None,
                  msg_id=ev.msg_id))
        if ev.src != ev.dst:
            by_rank.setdefault(ev.src, []).append(
                _Busy(ev.t_start, ev.t_end, "wire", name, msg_id=ev.msg_id))
    out: Dict[int, _RankBusy] = {}
    for rank, intervals in by_rank.items():
        intervals.sort(key=lambda b: (b.t_end, b.t_start))
        floor = list(accumulate((b.t_start for b in reversed(intervals)), min))
        floor.reverse()
        out[rank] = (intervals, [b.t_end for b in intervals], floor)
    return out


def _op_windows(profiler) -> Dict[int, _RankOps]:
    """Per-rank operation spans (collective/petsc/solver/p2p), innermost
    resolvable: ``(t_start, t_end, depth, name)`` sorted by start."""
    by_rank: Dict[int, List[Tuple[float, float, int, str]]] = {}
    for s in profiler.tracer.spans:
        if s.category not in _OP_CATEGORIES or s.open:
            continue
        by_rank.setdefault(s.rank, []).append(
            (s.t_start, s.t_end, s.depth, s.name))
    out: Dict[int, _RankOps] = {}
    for rank, windows in by_rank.items():
        windows.sort()
        out[rank] = (windows, [w[0] for w in windows],
                     list(accumulate((w[1] for w in windows), max)))
    return out


def _op_at(ops: Dict[int, _RankOps], rank: int, t: float) -> str:
    """The innermost (deepest) operation span on ``rank`` covering ``t``;
    of equally deep ones, the last in start order."""
    windows, starts, reach = ops.get(rank, _NO_OPS)
    best = None
    for k in range(bisect_left(reach, t), bisect_right(starts, t)):
        _t0, t1, depth, name = windows[k]
        if t1 >= t and (best is None or depth >= best[0]):
            best = (depth, name)
    return best[1] if best is not None else "(program)"


# -- the backward walk -------------------------------------------------------

def critical_path(profiler, max_segments: int = 1_000_000) -> CriticalPath:
    """Compute the critical path of a profiled run (see module docstring).

    ``profiler`` is a :class:`repro.prof.Profiler` whose cluster has run.
    The walk is deterministic: ties prefer local CPU work over wire
    occupancy (the engine's whole point is overlapping the two -- local
    work explains the rank's progress), then the latest-starting interval.
    """
    busy = _busy_intervals(profiler)
    windows = _op_windows(profiler)
    nranks = getattr(getattr(profiler, "cluster", None), "nranks", None)
    if nranks is None:
        nranks = (max(busy) + 1) if busy else 0

    # the run's makespan: the latest event end anywhere
    makespan = 0.0
    end_rank = 0
    for rank, (_intervals, ends, _floor) in sorted(busy.items()):
        if ends[-1] > makespan:
            makespan = ends[-1]
            end_rank = rank
    label = getattr(profiler, "label", None)
    if makespan <= 0.0:
        return CriticalPath(0.0, nranks, [], label=label)
    eps = makespan * 1e-12

    segments: List[Segment] = []
    rank, t = end_rank, makespan
    while t > eps and len(segments) < max_segments:
        intervals, ends, floor = busy.get(rank, _NO_BUSY)
        cut = t - eps
        first = bisect_left(ends, cut)
        # 1. a busy interval still running at t explains the progress;
        #    prefer CPU over wire, then the latest start (innermost)
        cover = None
        for k in range(first, bisect_left(floor, cut, first)):
            b = intervals[k]
            if b.t_start < cut:
                kind = 0 if b.category != "wire" else 1
                key = (kind, -b.t_start)
                if cover is None or key < cover[0]:
                    cover = (key, b)
        if cover is not None:
            b = cover[1]
            lo = max(b.t_start, 0.0)
            # a wire segment is *attributed to the sender*: the link gating
            # the path is the sender's NIC, so per-rank path time names the
            # rank whose (slow or oversized) sends made the run long
            owner = b.src if (b.category == "wire" and b.src is not None) else rank
            segments.append(Segment(owner, lo, t, b.category, b.name,
                                    _op_at(windows, rank, t), b.msg_id))
            t = lo
            if b.category == "wire" and b.src is not None:
                rank = b.src  # message edge: hand over to the sender
            continue
        # 2. idle: wait back to the previous event end on this rank
        prev = max(0.0, ends[first - 1]) if first else 0.0
        segments.append(Segment(rank, prev, t, "wait", "wait",
                                _op_at(windows, rank, t)))
        t = prev
    if t > eps:
        # segment cap hit: attribute the unexplored prefix as wait so the
        # sum-of-segments == makespan identity survives truncation
        segments.append(Segment(rank, 0.0, t, "wait", "wait",
                                _op_at(windows, rank, t)))
    segments.reverse()
    return CriticalPath(makespan, nranks, segments, label=label)


# -- reporting ---------------------------------------------------------------

def path_report(profiler, outlier_fraction: float = DEFAULT_OUTLIER_FRACTION,
                threshold: float = DEFAULT_OUTLIER_THRESHOLD) -> Dict[str, Any]:
    """One run's entry for the ``repro-critpath/1`` document."""
    crit = critical_path(profiler)
    strag = crit.stragglers(outlier_fraction, threshold)
    return {
        "label": crit.label,
        "makespan": crit.makespan,
        "nranks": crit.nranks,
        "path_total": crit.total(),
        "by_category": crit.by_category(),
        "by_rank": {str(r): row for r, row in sorted(crit.by_rank().items())},
        "by_op": crit.by_op(),
        "stragglers": strag,
        "segments": [
            {
                "rank": s.rank, "t_start": s.t_start, "t_end": s.t_end,
                "duration": s.duration, "category": s.category,
                "name": s.name, "op": s.op,
                **({"msg_id": s.msg_id} if s.msg_id is not None else {}),
            }
            for s in crit.segments
        ],
    }


def report(profilers, outlier_fraction: float = DEFAULT_OUTLIER_FRACTION,
           threshold: float = DEFAULT_OUTLIER_THRESHOLD) -> Dict[str, Any]:
    """The ``repro-critpath/1`` JSON document for one or more profilers.

    Schema (documented in docs/OBSERVABILITY.md)::

        {"schema": "repro-critpath/1",
         "runs": [{"label", "makespan", "nranks", "path_total",
                   "by_category", "by_rank", "by_op",
                   "stragglers", "segments"}, ...]}
    """
    if not isinstance(profilers, (list, tuple)):
        profilers = [profilers]
    return {
        "schema": "repro-critpath/1",
        "runs": [path_report(p, outlier_fraction, threshold)
                 for p in profilers],
    }


def write_report(path: str, profilers, **kwargs) -> Dict[str, Any]:
    """Serialise :func:`report` to ``path``; returns the document."""
    doc = report(profilers, **kwargs)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


__all__ = [
    "CriticalPath",
    "DEFAULT_OUTLIER_FRACTION",
    "DEFAULT_OUTLIER_THRESHOLD",
    "SEGMENT_CATEGORIES",
    "Segment",
    "critical_path",
    "path_report",
    "report",
    "write_report",
]
