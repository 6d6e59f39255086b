"""The datatype compiler: canonical IR, pass pipeline and lowering.

Three families of guarantees:

- **canonical form**: equivalent constructor trees compile to *identical*
  IR (the paper's observation that Vector/Indexed/IndexedBlock/HVector
  describing the same layout should not perform differently);
- **byte identity**: the compiled copy programs produce exactly the
  bytes of the legacy per-element gather path, for every constructor,
  with the optimization pipeline on or off (property-based, including
  zero counts, zero-length blocks, overlapping displacements and deep
  nesting);
- **structure**: plan sharing across equal instances, op-count shape of
  optimized vs deoptimized lowering, and the compile-cache counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import (
    BYTE,
    DOUBLE,
    INT,
    Contiguous,
    HIndexed,
    HVector,
    Indexed,
    IndexedBlock,
    Resized,
    Struct,
    Subarray,
    TypedBuffer,
    Vector,
    ir,
)

D = DOUBLE


# -- helpers ------------------------------------------------------------------

def _gather_index(blocks):
    """(index array, granularity): positions of payload units in the buffer.

    ``index[i]`` is the buffer position (in units of ``granularity`` bytes)
    of the i-th payload unit of the packed stream.
    """
    gran = blocks.granularity()
    offs = blocks.offsets // gran
    lens = blocks.lengths // gran
    total = int(lens.sum())
    # classic vectorised "ragged ranges" construction:
    # index = concat(arange(off, off+len) for each block)
    ends = np.cumsum(lens)
    starts = ends - lens
    index = np.arange(total, dtype=np.int64) + np.repeat(offs - starts, lens)
    return index, gran


def _unit_view(tb, gran):
    """Void view of ``tb``'s bytes at pack granularity.

    Every block offset and end is a multiple of the granularity, so
    trimming the tail remainder of the byte view never cuts a block.
    """
    usable = tb._bytes.size - tb._bytes.size % gran
    return tb._bytes[:usable].view(np.dtype((np.void, gran)))


def pack_legacy(tb):
    """The pre-IR element-gather pack: the differential oracle."""
    if tb.count == 0:
        return np.empty(0, dtype=np.uint8)
    blocks = tb.blocks
    if blocks.num_blocks == 1:
        off = int(blocks.offsets[0])
        return tb._bytes[off : off + tb.nbytes].copy()
    index, gran = _gather_index(blocks)
    if gran > 1:
        return _unit_view(tb, gran)[index].view(np.uint8).reshape(-1)
    return tb._bytes[index].copy()


def unpack_legacy(tb, data):
    """The pre-IR element-scatter unpack: the differential oracle."""
    data = np.asarray(data).reshape(-1).view(np.uint8)
    assert data.size == tb.nbytes
    if tb.count == 0:
        return
    blocks = tb.blocks
    if blocks.num_blocks == 1:
        off = int(blocks.offsets[0])
        tb._bytes[off : off + tb.nbytes] = data
        return
    index, gran = _gather_index(blocks)
    if gran > 1:
        _unit_view(tb, gran)[index] = data.view(np.dtype((np.void, gran)))
    else:
        tb._bytes[index] = data


def roundtrip_identical(dt, count=1, offset_bytes=0):
    """pack/unpack/extract via the compiled program vs the legacy gather
    path, byte for byte, on a deterministic pattern buffer."""
    need = offset_bytes + (count * dt.extent if count else 0) + 64
    src = np.arange(need, dtype=np.uint8)
    tb = TypedBuffer(src.copy(), dt, count=count, offset_bytes=offset_bytes)
    legacy_tb = TypedBuffer(src.copy(), dt, count=count,
                            offset_bytes=offset_bytes)
    packed = tb.pack()
    packed_legacy = pack_legacy(legacy_tb)
    assert packed.tobytes() == packed_legacy.tobytes()
    assert tb.extract().tobytes() == packed.tobytes()

    # unpack a fresh pattern into two zeroed buffers: identical layouts
    wire = (np.arange(len(packed), dtype=np.uint8) + 7).astype(np.uint8)
    a = TypedBuffer(np.zeros(need, dtype=np.uint8), dt, count=count,
                    offset_bytes=offset_bytes)
    b = TypedBuffer(np.zeros(need, dtype=np.uint8), dt, count=count,
                    offset_bytes=offset_bytes)
    a.unpack(wire)
    unpack_legacy(b, wire)
    assert a._bytes.tobytes() == b._bytes.tobytes()


@pytest.fixture
def passes_disabled():
    ir.set_passes_enabled(False)
    ir.cache_clear()
    try:
        yield
    finally:
        ir.set_passes_enabled(True)
        ir.cache_clear()


# -- canonical form -----------------------------------------------------------

def test_equivalent_strided_specs_share_one_canonical_ir():
    specs = [
        Vector(4, 2, 4, D),
        Indexed([2, 2, 2, 2], [0, 4, 8, 12], D),
        IndexedBlock(2, [0, 4, 8, 12], D),
        HVector(4, 2, 32, D),
    ]
    irs = {ir.ir_of(s) for s in specs}
    assert irs == {ir.Loop(count=4, stride=32,
                           child=ir.Block(offset=0, length=16))}


def test_fully_contiguous_specs_normalize_to_a_single_block():
    specs = [
        Contiguous(2, Vector(2, 2, 2, D)),
        Indexed([8], [0], D),
        Contiguous(8, D),
    ]
    assert {ir.ir_of(s) for s in specs} == {ir.Block(offset=0, length=64)}


def test_abutting_struct_members_coalesce():
    s = Struct([2, 2], [0, 16], [D, D])
    assert ir.ir_of(s) == ir.Block(offset=0, length=32)


def test_vector_of_full_rows_is_contiguous():
    # blocklength == stride: no holes, a vector in name only
    assert ir.ir_of(Vector(5, 3, 3, D)) == ir.Block(offset=0, length=120)


def test_nested_loop_collapse():
    # Contiguous over a vector whose padded extent equals count*stride:
    # the outer replication step lines up and the loops fuse into one
    v = Resized(Vector(4, 1, 2, D), 64)
    c = Contiguous(3, v)
    assert ir.ir_of(c) == ir.Loop(count=12, stride=16,
                                  child=ir.Block(offset=0, length=8))


def test_scatter_rerolls_to_strided_loop():
    # uniform lengths + uniform stride: the Indexed fast path lands on
    # the same rolled loop a Vector would
    i = Indexed([1, 1, 1, 1, 1, 1], [0, 3, 6, 9, 12, 15], D)
    assert ir.ir_of(i) == ir.Loop(count=6, stride=24,
                                  child=ir.Block(offset=0, length=8))


def test_canonical_ir_means_shared_plan_and_shared_blocklist():
    a = Vector(8, 1, 8, D)
    b = IndexedBlock(1, list(range(0, 64, 8)), D)
    assert a.struct_key() != b.struct_key()  # different constructors...
    pa, pb = ir.compile_datatype(a), ir.compile_datatype(b)
    assert pa.ir == pb.ir  # ...same canonical IR
    assert np.array_equal(pa.blocks.offsets, pb.blocks.offsets)
    assert np.array_equal(pa.blocks.lengths, pb.blocks.lengths)


def test_flatten_is_memoized_across_equal_instances():
    a = Vector(8, 1, 8, D)
    b = Vector(8, 1, 8, D)
    assert a is not b
    assert a.flatten() is b.flatten()


# -- IR blocklist equals the legacy per-class flatten walks -------------------

LEGACY_EQUIV_SPECS = [
    D,
    BYTE,
    Contiguous(5, D),
    Contiguous(3, Contiguous(2, INT)),
    Vector(4, 2, 5, D),
    Vector(3, 2, 2, D),
    HVector(3, 1, 24, D),
    Indexed([2, 0, 3], [0, 5, 7], D),
    Indexed([1, 2], [3, 0], D),           # unsorted displacements
    IndexedBlock(2, [0, 6, 3], D),
    HIndexed([2, 1], [8, 40], D),
    Struct([1, 2], [0, 16], [INT, D]),
    Struct([2, 1], [4, 0], [BYTE, D]),
    Subarray([4, 5], [2, 3], [1, 1], D),
    Subarray([4, 5], [2, 3], [1, 1], D, order="F"),
    Resized(Vector(2, 1, 3, D), 64),
    Vector(2, 2, 3, Contiguous(2, D)),
    Indexed([2, 1], [0, 4], Vector(2, 1, 2, D)),  # noncontiguous base
]


@pytest.mark.parametrize("dt", LEGACY_EQUIV_SPECS,
                         ids=[type(s).__name__ + str(i)
                              for i, s in enumerate(LEGACY_EQUIV_SPECS)])
def test_ir_blocklist_matches_legacy_flatten(dt):
    legacy = dt._flatten()
    via_ir = ir.to_blocklist(ir.ir_of(dt))
    assert np.array_equal(via_ir.offsets, legacy.offsets)
    assert np.array_equal(via_ir.lengths, legacy.lengths)


@pytest.mark.parametrize("dt", LEGACY_EQUIV_SPECS,
                         ids=[type(s).__name__ + str(i)
                              for i, s in enumerate(LEGACY_EQUIV_SPECS)])
def test_roundtrip_every_constructor(dt):
    roundtrip_identical(dt)
    roundtrip_identical(dt, count=3)
    roundtrip_identical(dt, count=2, offset_bytes=8)


# -- edge cases ---------------------------------------------------------------

def test_zero_count_typed_buffer():
    tb = TypedBuffer(np.zeros(16, dtype=np.uint8), D, count=0)
    assert tb.nbytes == 0
    assert tb.pack().size == 0
    tb.unpack(np.empty(0, dtype=np.uint8))  # no-op, no error


def test_zero_length_indexed_blocks_drop_out():
    dt = Indexed([0, 2, 0, 1], [9, 0, 5, 4], D)
    assert dt.size == 3 * 8
    roundtrip_identical(dt, count=2)


def test_overlapping_displacements_unpack_last_wins():
    # MPI leaves overlapping unpack targets implementation-defined; we
    # pin sequential last-wins and require legacy/IR agreement
    dt = Indexed([2, 2], [0, 1], D)
    roundtrip_identical(dt, count=1)


def test_deep_nesting_roundtrip():
    dt = Vector(2, 1, 2, HVector(2, 1, 48, Contiguous(2, Vector(2, 1, 2, D))))
    roundtrip_identical(dt, count=2, offset_bytes=16)


# -- property-based byte identity ---------------------------------------------

@st.composite
def datatype_tree(draw, depth=0):
    kinds = ["primitive", "contiguous", "vector", "hvector",
             "indexed", "indexed_block", "struct", "resized"]
    kind = "primitive" if depth >= 2 else draw(st.sampled_from(kinds))
    if kind == "primitive":
        return draw(st.sampled_from([D, INT, BYTE]))
    base = draw(datatype_tree(depth=depth + 1))
    if kind == "contiguous":
        return Contiguous(draw(st.integers(1, 4)), base)
    if kind == "vector":
        blocklength = draw(st.integers(1, 3))
        stride = blocklength + draw(st.integers(0, 3))
        return Vector(draw(st.integers(1, 4)), blocklength, stride, base)
    if kind == "hvector":
        blocklength = draw(st.integers(1, 2))
        stride = blocklength * base.extent + 8 * draw(st.integers(0, 2))
        return HVector(draw(st.integers(1, 3)), blocklength, stride, base)
    if kind == "indexed":
        nblocks = draw(st.integers(1, 4))
        lens = [draw(st.integers(0, 3)) for _ in range(nblocks)]
        lens[draw(st.integers(0, nblocks - 1))] = draw(st.integers(1, 3))
        disps, pos = [], 0
        for length in lens:
            pos += draw(st.integers(0, 2))
            disps.append(pos)
            pos += length
        return Indexed(lens, disps, base)
    if kind == "indexed_block":
        blocklength = draw(st.integers(1, 3))
        nblocks = draw(st.integers(1, 3))
        disps, pos = [], 0
        for _ in range(nblocks):
            pos += draw(st.integers(0, 2))
            disps.append(pos)
            pos += blocklength
        return IndexedBlock(blocklength, disps, base)
    if kind == "struct":
        n = draw(st.integers(1, 3))
        lens = [draw(st.integers(1, 2)) for _ in range(n)]
        disps, pos = [], 0
        for length in lens:
            pos += draw(st.integers(0, 16))
            disps.append(pos)
            pos += length * base.extent
        return Struct(lens, disps, [base] * n)
    return Resized(base, base.extent + 8 * draw(st.integers(0, 2)))


@given(datatype_tree(), st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_fuzz_ir_matches_legacy(dt, count, off8):
    roundtrip_identical(dt, count=count, offset_bytes=8 * off8)


@given(datatype_tree(), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_fuzz_ir_matches_legacy_passes_disabled(dt, count):
    ir.set_passes_enabled(False)
    ir.cache_clear()
    try:
        roundtrip_identical(dt, count=count)
    finally:
        ir.set_passes_enabled(True)
        ir.cache_clear()


@given(datatype_tree())
@settings(max_examples=100, deadline=None)
def test_fuzz_canonical_ir_is_a_fixpoint(dt):
    # the pass pipeline must be idempotent: optimizing canonical IR
    # again changes nothing
    canonical = ir.ir_of(dt)
    assert ir.optimize(canonical) == canonical


# -- lowering structure -------------------------------------------------------

def test_optimized_lowering_uses_strided_ops():
    plan = ir.compile_datatype(Vector(8, 1, 8, D), 4)
    assert plan.program.num_ops == 4
    assert plan.program.op_kinds() == {"strided": 4}


def test_deoptimized_lowering_is_one_op_per_block(passes_disabled):
    plan = ir.compile_datatype(Vector(8, 1, 8, D), 4)
    assert plan.program.num_ops == 32
    assert set(plan.program.op_kinds()) == {"contig"}


def test_contiguous_lowers_to_single_copy():
    plan = ir.compile_datatype(Contiguous(64, D))
    assert plan.program.num_ops == 1
    assert plan.program.op_kinds() == {"contig": 1}
    # 64 raw element blocks coalesced into one: ratio = blocks/raw
    assert plan.coalesced_ratio == pytest.approx(1 / 64)


def test_huge_irregular_layout_falls_back_to_gather():
    # 3000 ragged runs blow the python-op budget: the lowering must
    # emit one vectorized gather, not thousands of interpreted ops
    rng = np.random.default_rng(0)
    disps = np.cumsum(rng.integers(2, 5, size=3000))
    lens = rng.integers(1, 2, size=3000)
    dt = Indexed(lens.tolist(), disps.tolist(), D)
    plan = ir.compile_datatype(dt)
    assert plan.program.op_kinds() == {"gather": 1}
    roundtrip_identical(dt)


def test_compile_cache_hits_across_instances():
    ir.cache_clear()
    before = ir.cache_stats()
    a = TypedBuffer(np.zeros(4096, dtype=np.uint8), Vector(7, 2, 9, D),
                    count=2)
    b = TypedBuffer(np.zeros(4096, dtype=np.uint8), Vector(7, 2, 9, D),
                    count=2)
    after = ir.cache_stats()
    assert after["misses"] >= before["misses"] + 1
    assert after["hits"] >= before["hits"] + 1
    assert a.plan is b.plan


def test_plan_info_feeds_layout_summary():
    tb = TypedBuffer(np.zeros(4096, dtype=np.uint8), Vector(8, 1, 8, D),
                     count=4)
    info = tb.layout_summary()
    assert info["ir_ops"] == 4
    assert info["ir_raw_blocks"] == 32
    assert 0.0 <= info["ir_coalesced_ratio"] <= 1.0
