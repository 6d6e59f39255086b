"""Event-order pin over one point per paper figure.

Each case runs one seeded benchmark point and hashes ``(now.hex(),
process name)`` of every :meth:`Engine._step`, i.e. the exact order in
which processes resume and at which simulated times.  The expected
digests were recorded before the engine's ready queue existed, on the
heap-only scheduler; a change to the scheduler, the MPI stack or the
datatype layer that reorders any event changes a digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps import (
    allgatherv_benchmark,
    alltoallw_ring_benchmark,
    laplacian3d_benchmark,
    transpose_benchmark,
    vecscatter_benchmark,
)
from repro.faults import FaultPlan
from repro.mpi import MPIConfig
from repro.simtime.engine import Engine

BASE = MPIConfig.baseline()
OPT = MPIConfig.optimized()
RELIABLE = OPT.with_(reliable_transport=True)

CASES = {
    "allgatherv np=24 base": lambda: allgatherv_benchmark(
        24, 4096, BASE, seed=1),
    "allgatherv np=24 new": lambda: allgatherv_benchmark(
        24, 4096, OPT, seed=1),
    # retransmit timers raced by acks: timeout/cancel on the ready queue
    "allgatherv np=16 reliable, random faults": lambda: allgatherv_benchmark(
        16, 4096, RELIABLE, seed=1,
        fault_plan=FaultPlan.random(1, 16, drop_p=0.1)),
    "alltoallw ring np=24 base": lambda: alltoallw_ring_benchmark(
        24, BASE, seed=1),
    "alltoallw ring np=24 new": lambda: alltoallw_ring_benchmark(
        24, OPT, seed=1),
    "vecscatter np=8 hand-tuned": lambda: vecscatter_benchmark(
        8, "hand_tuned", BASE, per_process=2048, seed=1),
    "vecscatter np=8 new": lambda: vecscatter_benchmark(
        8, "datatype", OPT, per_process=2048, seed=1),
    "transpose 256 base": lambda: transpose_benchmark(256, BASE, seed=1),
    "transpose 256 new": lambda: transpose_benchmark(256, OPT, seed=1),
    "multigrid np=2 new": lambda: laplacian3d_benchmark(
        2, "MVAPICH2-New", grid=(24, 24, 24), levels=3, fixed_cycles=3,
        seed=1),
    "multigrid np=2 hand-tuned": lambda: laplacian3d_benchmark(
        2, "hand-tuned", grid=(24, 24, 24), levels=3, fixed_cycles=3,
        seed=1),
}

#: case -> (sha256 of the resumption stream, number of resumptions)
EXPECTED = {
    'allgatherv np=16 reliable, random faults': (
        '4b4ec8f1345c2a44e6954a9d12d21ada51fd1a325aa73a534671e87e26526a87',
        941),
    'allgatherv np=24 base': (
        '8e880c84db4826f3faf610566079ce699ad1e2161457d3c9db1e685a3eb55420',
        3044),
    'allgatherv np=24 new': (
        '6d17f1c77df62b99600965e253f3aae2b0365877ffdbb0060ce726647fbb6dad',
        1292),
    'alltoallw ring np=24 base': (
        '60321c557ea8595871682c7dfef9fc24e771bafc6c72a79215f97dd51906a7d6',
        3120),
    'alltoallw ring np=24 new': (
        '5f182292adfc4ad910023ebca1a5402fda502f1ca102f9159fe88ef5a5835bff',
        600),
    'multigrid np=2 hand-tuned': (
        '87a49924c3fe54816e7a78c2a8683de5a7d5515a022b161ed5a6c70257207787',
        1363),
    'multigrid np=2 new': (
        '26f40e704e03e9fdaec3039f9fde4af9344aaa17d59bac7632a4aefe53786178',
        1469),
    'transpose 256 base': (
        'f12af875ebb506b15fe3cc1215b4e8b3c453b14bc28eddc6774c28eb4ba8aa61',
        41),
    'transpose 256 new': (
        'b8cbbd04abcd4d15cc68f3e7a13afa7bd0b15b35fd0a7b73b321bf67d40f870a',
        40),
    'vecscatter np=8 hand-tuned': (
        '3f54ffa6ae68a5523ec0e9d9ef8d9b3c553f90719aee8e4410f149a6a621be72',
        136),
    'vecscatter np=8 new': (
        '23fb267cfbc80b42bbc2eeb6ca06caac45e1b86754f8bb0601d3f62c517a3632',
        128),
}


def event_order_digest(monkeypatch, run) -> tuple:
    """``(sha256 hex, steps)`` over every process resumption of ``run()``."""
    h = hashlib.sha256()
    steps = [0]
    step = Engine._step

    def recording_step(engine, proc, mode, payload):
        h.update(f"{engine.now.hex()} {proc.name}\n".encode())
        steps[0] += 1
        return step(engine, proc, mode, payload)

    monkeypatch.setattr(Engine, "_step", recording_step)
    run()
    return h.hexdigest(), steps[0]


@pytest.mark.parametrize("name", sorted(CASES))
def test_event_order_is_pinned(monkeypatch, name):
    assert event_order_digest(monkeypatch, CASES[name]) == EXPECTED[name]
