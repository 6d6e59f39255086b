"""Integration tests: Profiler + observer API on real simulated clusters."""

import numpy as np
import pytest

from repro.apps.transpose import column_major_type
from repro.datatypes import TypedBuffer
from repro.mpi import Cluster, MPIConfig, TruncationError
from repro.prof import NULL_PROFILER, Profiler, validate_breakdown
from repro.util import CostModel

QUIET = CostModel(cpu_noise=0.0)


def make_cluster(n, config=None, **kwargs):
    return Cluster(n, config=config or MPIConfig.optimized(), cost=QUIET,
                   heterogeneous=False, **kwargs)


class RecordingObserver:
    """Subscribes to every documented cluster event and logs the order."""

    def __init__(self):
        self.events = []

    def on_send_posted(self, rec):
        self.events.append(("send_posted", rec.src, rec.dst, rec.nbytes))

    def on_recv_posted(self, dst, rrec):
        self.events.append(("recv_posted", dst))

    def on_match(self, rec, rrec):
        self.events.append(("match", rec.src, rec.dst))

    def on_truncation(self, rec, rrec):
        self.events.append(("truncation", rec.nbytes,
                            rrec.tb.nbytes if rrec.tb is not None else 0))

    def on_transfer(self, ev):
        self.events.append(("transfer", ev.src, ev.dst, ev.nbytes))

    def on_request(self, grank, req):
        self.events.append(("request", grank, req.kind))

    def names(self):
        return [e[0] for e in self.events]


# -- observer-event ordering --------------------------------------------------

def test_event_order_pipelined_noncontiguous_send():
    """A 32 KiB noncontiguous (rendezvous, 2-chunk pipelined) send fires the
    observer events in protocol order: the receive is posted, the send
    enters matching, they bind, then the wire chunks flow."""
    n = 64                                   # 64x64 doubles = 32 KiB
    cluster = make_cluster(2)
    obs = RecordingObserver()
    cluster.add_observer(obs)
    m = np.arange(n * n, dtype=float).reshape(n, n)
    out = np.zeros(n * n)

    def main(comm):
        if comm.rank == 0:
            yield from comm.cpu(1e-6)        # let rank 1 post its receive
            yield from comm.send(TypedBuffer(m, column_major_type(n)), dest=1)
        else:
            yield from comm.recv(out, source=0)

    cluster.run(main)
    names = obs.names()
    # protocol order
    assert names.index("recv_posted") < names.index("send_posted")
    assert names.index("send_posted") < names.index("match")
    assert names.index("match") < names.index("transfer")
    # rendezvous payload above pipeline_chunk flows as two wire chunks
    transfers = [e for e in obs.events if e[0] == "transfer"]
    assert len(transfers) == 2
    assert sum(e[3] for e in transfers) == n * n * 8
    assert ("send_posted", 0, 1, n * n * 8) in obs.events
    # both the send and receive requests were announced
    kinds = {e[2] for e in obs.events if e[0] == "request"}
    assert kinds == {"send", "recv"}
    # functional correctness rode along: column-major send = transpose
    assert np.array_equal(out.reshape(n, n), m.T)


def test_truncation_event_fires_before_error():
    cluster = make_cluster(2)
    obs = RecordingObserver()
    cluster.add_observer(obs)

    def main(comm):
        if comm.rank == 0:
            yield from comm.cpu(1e-6)
            yield from comm.send(np.zeros(100), dest=1)
        else:
            yield from comm.recv(np.zeros(10), source=0)

    with pytest.raises(TruncationError):
        cluster.run(main)
    assert ("truncation", 800, 80) in obs.events
    assert "match" not in obs.names()        # the bind failed


def test_hooks_bind_on_the_first_observer():
    """Without observers the notifications are no-ops and the wire has no
    cluster listener; observers attached later see every event, once."""

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(4), dest=1)
        else:
            yield from comm.recv(np.zeros(4), source=0)

    cluster = make_cluster(2)
    assert cluster.net._transfer_listeners == []
    cluster.run(main)
    first, second = RecordingObserver(), RecordingObserver()
    cluster.add_observer(first)
    cluster.add_observer(second)
    assert len(cluster.net._transfer_listeners) == 1
    cluster.run(main)
    assert first.events == second.events
    assert first.names().count("transfer") == 1
    assert {"send_posted", "recv_posted", "match", "request",
            "transfer"} <= set(first.names())


def test_observers_do_not_require_every_hook():
    """An observer implementing a subset of the hooks is fine."""

    class Partial:
        def __init__(self):
            self.transfers = 0

        def on_transfer(self, ev):
            self.transfers += 1

    cluster = make_cluster(2)
    partial = Partial()
    cluster.add_observer(partial)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(4), dest=1)
        else:
            yield from comm.recv(np.zeros(4), source=0)

    cluster.run(main)
    assert partial.transfers == 1


# -- span nesting under forced datatype re-search -----------------------------

def run_transpose(config, n=64):
    cluster = make_cluster(2, config)
    prof = Profiler.attach(cluster)
    m = np.arange(n * n, dtype=float).reshape(n, n)
    out = np.zeros(n * n)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(TypedBuffer(m, column_major_type(n)), dest=1)
        else:
            yield from comm.recv(out, source=0)

    cluster.run(main)
    return prof


def test_span_nesting_under_forced_research():
    """The baseline single-context engine re-searches the datatype; the
    resulting cpu spans nest inside the isend span and the re-search
    metrics fill in."""
    prof = run_transpose(MPIConfig.baseline())
    tracer = prof.tracer
    assert tracer.open_spans() == []
    (isend,) = tracer.by_name("isend")
    assert isend.category == "p2p"
    children = tracer.children_of(isend)
    child_names = {s.name for s in children}
    # the 64x64 transpose type is all single-element blocks: sparse path,
    # so the single-context engine pays look-ahead + re-search + pack
    assert {"lookahead", "search", "pack"} <= child_names
    for child in children:
        assert child.category == "cpu"
        assert child.depth == isend.depth + 1
        assert isend.encloses(child)
    # re-search metrics: >0 re-searches, with recorded walk depths
    snap = prof.snapshot()
    assert snap["repro_research_total"] > 0
    assert snap["repro_research_depth_blocks"]["count"] > 0
    assert snap["repro_research_depth_blocks"]["sum"] > 0
    assert snap["repro_lookahead_sparse_total"] > 0
    assert snap["repro_pack_bytes_total"] == 64 * 64 * 8


def test_dual_context_engine_never_researches():
    prof = run_transpose(MPIConfig.optimized())
    assert "repro_research_total" not in prof.metrics
    assert not prof.tracer.by_name("search")
    snap = prof.snapshot()
    assert snap["repro_pack_stages_total"] >= 2      # still pipelined


def test_receiver_unpack_runs_on_io_lane():
    """A noncontiguous *receive* charges unpack on the receiver's io lane."""
    n = 64
    cluster = make_cluster(2)
    prof = Profiler.attach(cluster)
    m = np.arange(n * n, dtype=float)
    out = np.zeros((n, n))

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(m, dest=1)          # contiguous send
        else:
            yield from comm.recv(TypedBuffer(out, column_major_type(n)),
                                 source=0)

    cluster.run(main)
    unpacks = prof.tracer.by_name("unpack")
    assert unpacks and all(s.track == (1, "io") for s in unpacks)
    snap = prof.snapshot()
    assert snap["repro_unpack_bytes_total"] == n * n * 8
    # contiguous receive of the column type = transpose on the receiver
    assert np.array_equal(out, m.reshape(n, n).T)


# -- breakdown consistency on a real collective -------------------------------

def test_collective_breakdown_sums_within_tolerance():
    n = 8
    counts = [4, 4, 4, 4, 4000, 4, 4, 4]            # one outlier volume
    displs = np.concatenate(([0], np.cumsum(counts[:-1]))).astype(int).tolist()
    total = int(np.sum(counts))
    cluster = make_cluster(n)
    prof = Profiler.attach(cluster)

    def main(comm):
        send = np.full(counts[comm.rank], float(comm.rank + 1))
        recv = np.zeros(total)
        # outlier counts are the point  # analyze: ignore[PLAN102]
        yield from comm.allgatherv(send, recv, counts, displs)
        return recv

    results = cluster.run(main)
    for recv in results:
        assert recv[displs[4]] == 5.0                # payload correct
    rows = prof.breakdown("collective")
    assert len(rows) == n                            # one row per rank
    assert validate_breakdown(rows)                  # sums to elapsed
    assert {r["op"] for r in rows} == {"allgatherv"}
    # the collective window covers the whole call on every rank
    for r in rows:
        assert r["elapsed"] > 0
        assert r["wait"] >= 0
    # adaptive selection ran the outlier check and counted it
    snap = prof.snapshot()
    assert snap["repro_outlier_checks_total"] == n
    assert snap["repro_outlier_detected_total"] == n
    assert snap["repro_kselect_calls_total"] >= n
    coll_counter = prof.metrics.counter("repro_collectives_total")
    assert coll_counter.value(labels={"op": "allgatherv"}) == n
    # phase spans nest under their collective span
    phases = prof.tracer.by_category("phase")
    assert phases
    colls = {s.id: s for s in prof.tracer.by_category("collective")}
    assert all(p.parent in colls for p in phases)


def test_transfer_metrics_match_observer_stream():
    cluster = make_cluster(2)
    prof = Profiler.attach(cluster)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(100), dest=1)
        else:
            yield from comm.recv(np.zeros(100), source=0)

    cluster.run(main)
    assert len(prof.transfers) == 1
    snap = prof.snapshot()
    assert snap["repro_transfer_messages_total"] == 1
    assert snap["repro_transfer_bytes_total"] == 800
    assert snap["repro_wire_seconds_total"] > 0
    # the eager send completes before wait; only the receive blocks
    assert snap["repro_request_wait_seconds"]["count"] >= 1
    assert snap["repro_engine_events"] > 0
    assert snap["repro_engine_processes"] > 0


def test_unprofiled_cluster_uses_null_profiler():
    cluster = make_cluster(2)
    assert cluster.profiler is NULL_PROFILER

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.zeros(10), dest=1)
        else:
            yield from comm.recv(np.zeros(10), source=0)

    cluster.run(main)                                # no spans, no crash
    assert NULL_PROFILER.snapshot() == {}


def test_shared_registry_across_clusters():
    from repro.prof import MetricsRegistry

    reg = MetricsRegistry()
    for _ in range(2):
        cluster = make_cluster(2)
        Profiler.attach(cluster, registry=reg)

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(10), dest=1)
            else:
                yield from comm.recv(np.zeros(10), source=0)

        cluster.run(main)
    assert reg.counter("repro_send_messages_total").value() == 2


# -- process-wide session -----------------------------------------------------

def test_session_auto_attaches_and_reports():
    from repro.bench.harness import FigureData
    from repro.prof import session

    reg = session.enable()
    try:
        cluster = make_cluster(2)
        assert isinstance(cluster.profiler, Profiler)
        assert cluster.profiler.metrics is reg
        assert session.profilers() == [cluster.profiler]

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.zeros(100), dest=1)
            else:
                yield from comm.recv(np.zeros(100), source=0)

        cluster.run(main)
        fig = FigureData("FigX", "demo", ["n", "latency"])
        fig.add_row(2, cluster.elapsed)
        report = session.report()
    finally:
        session.disable()
    assert report["clusters"] == 1
    assert report["metrics"]["repro_send_messages_total"] == 1
    assert "repro_send_messages_total 1" in report["prometheus"]
    # the row delta attributed the send to the row added after it
    (delta,) = report["row_metrics"]["FigX"]
    assert delta["repro_send_messages_total"] == 1
    # p2p-only workloads still produce breakdown rows (fig12 regression)
    assert report["breakdown_rows"] > 0
    assert report["breakdown_valid"] is True
    # once disabled, new clusters are unprofiled again
    assert make_cluster(2).profiler is NULL_PROFILER
