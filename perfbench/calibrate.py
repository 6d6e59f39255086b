"""A fixed reference kernel that measures how fast the host runs right now.

A shared host's speed drifts by tens of percent over minutes as other
work comes and goes, far more than the changes the benchmark must
resolve.  The kernel below does the same two kinds of work as the simulator --
an event loop over many generator processes that match message records in
per-rank queues, and numpy sorting and strided copies of larger arrays,
which a busy host slows less than interpreted code -- but it is the
benchmark's own code, so no change to the program moves it.  Run before and after every pass, it tracks the drift; a pass's host
seconds times ``REFERENCE_S / kernel seconds`` are the seconds it would
have taken on the host running at its reference speed.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: the kernel's median seconds on the reference host (2 cores)
REFERENCE_S = 0.035

_RANKS = 256
_STEPS = 20
_KEYS = np.random.default_rng(0).integers(0, 1 << 20, 30_000)
_ARRAY = np.arange(1_000_000, dtype=np.float64)


class _Record:
    __slots__ = ("src", "tag", "data")

    def __init__(self, src: int, tag: int, data: np.ndarray):
        self.src = src
        self.tag = tag
        self.data = data


def _rank(rank: int, queues: dict):
    """Sends a slice to its successor, then matches one record by tag."""
    acc = 0.0
    mine = queues[rank]
    for step in range(_STEPS):
        buf = yield step
        tag = step % 7
        queues[(rank + 1) % _RANKS].append(
            _Record(rank, tag, buf[rank % 8::8].copy()))
        for i, rec in enumerate(mine):
            if rec.tag == tag:
                acc += float(rec.data[0])
                del mine[i]
                break
        if len(mine) > 8:
            mine.pop(0)
    return acc


def kernel() -> float:
    queues = {r: [] for r in range(_RANKS)}
    procs = {r: _rank(r, queues) for r in range(_RANKS)}
    buf = np.arange(256, dtype=np.float64)
    heap = []
    for r, gen in procs.items():
        next(gen)
        heapq.heappush(heap, (float(r % 5), r, lambda r=r: r))
    seq = _RANKS
    total = 0.0
    while heap:
        t, _, resume = heapq.heappop(heap)
        r = resume()
        try:
            step = procs[r].send(buf)
        except StopIteration as stop:
            total += stop.value
            continue
        seq += 1
        heapq.heappush(heap, (t + (step % 3) * 0.5, seq, lambda r=r: r))
    for _ in range(3):
        total += float(np.unique(_KEYS)[-1]) + float(_ARRAY[::3].copy()[-1])
    return total


def measure() -> float:
    """Seconds for one run of :func:`kernel`."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale from host seconds to reference-host seconds for work done
    between two kernel measurements."""
    return REFERENCE_S / ((before + after) / 2)
