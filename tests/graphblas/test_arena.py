"""Tests for the preallocated pending arena and its adopters.

Three layers of coverage: the arena container itself (growth, accounting,
zero-copy views, instrumentation counters), the raw value-bits codec (exact
bit round-trips, including NaN payloads), and a hypothesis battery asserting
that arena-backed lazy ``Matrix``/``Vector`` builds are bit-identical to the
eager build across engines, dtypes, and operator switches mid-stream.  The
last section checks that every pending-store site holds an arena and that
callers may overwrite a batch's buffers as soon as it is appended.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HierarchicalMatrix, IncrementalReductions
from repro.graphblas import Matrix, Vector, binary, coords
from repro.graphblas import arena


def nan_with_payload(payload: int) -> float:
    """A quiet float64 NaN carrying ``payload`` in its mantissa bits."""
    bits = np.uint64(0x7FF8_0000_0000_0000) | np.uint64(payload)
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# --------------------------------------------------------------------------- #
# the arena container
# --------------------------------------------------------------------------- #


class TestPendingArena:
    def test_append_views_roundtrip(self):
        a = arena.PendingArena(3)
        r = np.array([5, 1, 9], dtype=np.uint64)
        c = np.array([2, 2, 3], dtype=np.uint64)
        v = np.array([7, 8, 9], dtype=np.uint64)
        a.append(r, c, v)
        a.append(r[:1], c[:1], v[:1])
        assert a.used == 4 and a.ncols == 3
        rv, cv, vv = a.views()
        assert rv.tolist() == [5, 1, 9, 5]
        assert cv.tolist() == [2, 2, 3, 2]
        assert vv.tolist() == [7, 8, 9, 7]

    def test_views_are_zero_copy(self):
        a = arena.PendingArena(1)
        a.append(np.arange(10, dtype=np.uint64))
        (view,) = a.views()
        assert np.shares_memory(view, a._columns[0])

    def test_append_copies_input(self):
        a = arena.PendingArena(1)
        batch = np.arange(4, dtype=np.uint64)
        a.append(batch)
        batch[0] = 99
        assert a.views()[0][0] == 0

    def test_geometric_growth_one_per_doubling(self):
        a = arena.PendingArena(2)
        one = np.ones(1, dtype=np.uint64)
        total = arena.MIN_CAPACITY * 8
        for _ in range(total):
            a.append(one, one)
        # Capacity ladder: MIN, 2*MIN, 4*MIN, 8*MIN -> exactly one growth
        # per doubling, log-many in total.
        assert a.capacity == total
        assert a.grow_count == 4
        # Appending up to the current capacity never grows again.
        before = a.grow_count
        a.append(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64))
        assert a.grow_count == before

    def test_large_batch_single_growth(self):
        a = arena.PendingArena(1)
        a.append(np.zeros(10 * arena.MIN_CAPACITY, dtype=np.uint64))
        assert a.grow_count == 1
        assert a.capacity >= 10 * arena.MIN_CAPACITY

    def test_growth_preserves_prefix(self):
        a = arena.PendingArena(1, capacity=4)
        a.append(np.array([1, 2, 3, 4], dtype=np.uint64))
        a.append(np.array([5, 6], dtype=np.uint64))
        assert a.views()[0].tolist() == [1, 2, 3, 4, 5, 6]

    def test_reset_keeps_capacity_clear_drops_it(self):
        a = arena.PendingArena(2)
        one = np.ones(100, dtype=np.uint64)
        a.append(one, one)
        cap = a.capacity
        a.reset()
        assert a.used == 0 and a.capacity == cap
        a.append(one, one)
        assert a.grow_count == 1  # steady state: no new growth after reset
        a.clear()
        assert a.used == 0 and a.capacity == 0 and a.capacity_bytes == 0

    def test_reserve_replaces_growth_ladder(self):
        a = arena.PendingArena(1)
        a.reserve(arena.MIN_CAPACITY * 16)
        grows = a.grow_count
        assert grows == 1 and a.capacity >= arena.MIN_CAPACITY * 16
        for _ in range(16):
            a.append(np.zeros(arena.MIN_CAPACITY, dtype=np.uint64))
        assert a.grow_count == grows  # fill never grows within the reservation
        a.reserve(1)  # smaller than capacity: no-op
        assert a.grow_count == grows

    def test_byte_accounting(self):
        a = arena.PendingArena(3)
        a.append(*(np.ones(10, dtype=np.uint64),) * 3)
        assert a.used_bytes == 10 * 8 * 3
        assert a.capacity_bytes == a.capacity * 8 * 3
        assert a.capacity_bytes >= a.used_bytes

    def test_narrow_unsigned_inputs_zero_extend(self):
        a = arena.PendingArena(1)
        a.append(np.array([250, 7], dtype=np.uint8))
        assert a.views()[0].tolist() == [250, 7]

    def test_invalid_ncols(self):
        with pytest.raises(ValueError):
            arena.PendingArena(0)


# --------------------------------------------------------------------------- #
# the raw value-bits codec
# --------------------------------------------------------------------------- #


class TestValueBits:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_payloads_roundtrip_exactly(self, dtype):
        vals = np.array(
            [nan_with_payload(0xABC), np.nan, -np.nan, np.inf, 0.0, -0.0],
            dtype=dtype,
        )
        bits = arena.value_bits(vals, dtype)
        a = arena.PendingArena(1)
        a.append(bits)
        back = arena.bits_to_values(a.views()[0], dtype)
        u = np.dtype(f"u{np.dtype(dtype).itemsize}")
        assert np.array_equal(back.view(u), vals.view(u))  # bit-for-bit

    def test_eight_byte_decode_is_zero_copy(self):
        a = arena.PendingArena(1)
        a.append(arena.value_bits(np.array([1.5, -2.5]), np.float64))
        decoded = arena.bits_to_values(a.views()[0], np.float64)
        assert np.shares_memory(decoded, a._columns[0])
        assert decoded.tolist() == [1.5, -2.5]

    def test_canonical_input_encode_is_zero_copy(self):
        vals = np.array([1.5, 2.5], dtype=np.float64)
        assert np.shares_memory(arena.value_bits(vals, np.float64), vals)

    @pytest.mark.parametrize(
        "dtype,vals",
        [
            (np.int64, [-5, 0, 2**40]),
            (np.int32, [-5, 0, 7]),
            (np.uint8, [0, 255]),
            (np.bool_, [True, False]),
            (np.float32, [1.5, -0.25]),
        ],
    )
    def test_narrow_dtypes_roundtrip(self, dtype, vals):
        v = np.array(vals, dtype=dtype)
        a = arena.PendingArena(1)
        a.append(arena.value_bits(v, dtype))
        back = arena.bits_to_values(a.views()[0], dtype)
        assert back.dtype == np.dtype(dtype)
        assert np.array_equal(back, v)

    def test_cast_happens_at_encode_time(self):
        # Mixed-dtype pending batches converge to the canonical dtype here,
        # once — the flush never re-casts (the old Vector.wait() paid a full
        # astype copy over the concatenated buffer for this).
        bits = arena.value_bits(np.array([1, 2], dtype=np.int32), np.float64)
        assert arena.bits_to_values(bits, np.float64).tolist() == [1.0, 2.0]


# --------------------------------------------------------------------------- #
# bit-identity: arena-backed lazy builds vs the eager build
# --------------------------------------------------------------------------- #

DTYPES = ["fp64", "fp32", "int64"]
OPS = [binary.plus, binary.times, binary.second]


def _value(op_idx, val):
    """The stream value for one op: ``times`` factors are signs only.

    Lazy builds collapse a pending window before merging it, which regroups
    the operator's applications; with ``times`` factors in {-1, 0, 1} every
    intermediate stays a small exact integer in every dtype, so any grouping
    agrees bit for bit.
    """
    return int(np.sign(val)) if OPS[op_idx] is binary.times else val


class TestBitIdentity:
    @given(
        stream=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 30), st.integers(-4, 9)),
            max_size=60,
        ),
        dtype=st.sampled_from(DTYPES),
        packed=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_vector_streams_match(self, stream, dtype, packed):
        """Lazy (arena) and eager builds agree for any op-switching stream."""
        lazy = Vector(dtype, 2**32)
        eager = Vector(dtype, 2**32)
        with coords.packing_disabled() if not packed else contextlib.nullcontext():
            for op_idx, idx, val in stream:
                v = _value(op_idx, val)
                lazy.build([idx], [v], dup_op=OPS[op_idx], lazy=True)
                eager.build([idx], [v], dup_op=OPS[op_idx])
            assert lazy.isequal(eager, check_dtype=True)

    @given(
        stream=st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 12), st.integers(0, 12),
                st.integers(-4, 9),
            ),
            max_size=60,
        ),
        dtype=st.sampled_from(DTYPES),
        packed=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matrix_streams_match(self, stream, dtype, packed):
        lazy = Matrix(dtype, 2**32, 2**32)
        eager = Matrix(dtype, 2**32, 2**32)
        with coords.packing_disabled() if not packed else contextlib.nullcontext():
            for op_idx, r, c, val in stream:
                v = _value(op_idx, val)
                lazy.build([r], [c], [v], dup_op=OPS[op_idx], lazy=True)
                eager.build([r], [c], [v], dup_op=OPS[op_idx])
            assert lazy.isequal(eager, check_dtype=True)

    def test_nan_payloads_survive_matrix_flush(self):
        payload = nan_with_payload(0x123)
        lazy = Matrix("fp64", 100, 100)
        eager = Matrix("fp64", 100, 100)
        lazy.build([1, 2], [3, 4], [payload, 1.0], dup_op=binary.second, lazy=True)
        lazy.wait()
        eager.build([1, 2], [3, 4], [payload, 1.0], dup_op=binary.second)
        _, _, va = lazy.extract_tuples()
        _, _, vb = eager.extract_tuples()
        assert np.array_equal(va.view(np.uint64), vb.view(np.uint64))
        assert va.view(np.uint64)[0] & np.uint64(0xFFF) == 0x123


# --------------------------------------------------------------------------- #
# flush-cost regressions (the Vector.wait() mixed-dtype astype bug)
# --------------------------------------------------------------------------- #


class TestFlushAllocationRegression:
    def test_mixed_dtype_chunks_flush_without_concat_or_recast(self):
        """Pending batches of different input dtypes flush exactly.

        The pre-arena implementation concatenated the pending value chunks
        and then paid a *second* full-size ``astype`` copy whenever batches
        arrived in mixed dtypes.  The arena stores canonical value bits at
        append time, so the flush reads zero-copy views and re-casts
        nothing, regardless of input dtypes.
        """
        v = Vector("fp64", 1000)
        v.build(np.arange(10, dtype=np.uint64), np.arange(10, dtype=np.int32),
                lazy=True)
        v.build(np.arange(10, 20, dtype=np.uint64),
                np.arange(10, dtype=np.float32) / 4.0, lazy=True)
        v.build(np.arange(20, 30, dtype=np.uint64),
                np.arange(10, dtype=np.float64) / 8.0, lazy=True)
        assert v.nvals == 30  # forces the flush
        assert v[5] == 5.0 and v[12] == 0.5 and v[24] == 0.5

    def test_flush_reads_value_bits_without_copy(self):
        """The flush's value view aliases the arena column (no astype pass)."""
        v = Vector("fp64", 1000)
        v.build(np.arange(8, dtype=np.uint64), np.ones(8, dtype=np.int64),
                lazy=True)
        _, bits_view = v._pend.views()
        decoded = arena.bits_to_values(bits_view, np.float64)
        assert np.shares_memory(decoded, v._pend._columns[1])

    def test_steady_state_flush_counters(self):
        """Repeated build/wait cycles: no growth after warmup."""
        m = Matrix("fp64", 2**32, 2**32)
        idx = np.arange(100, dtype=np.uint64)
        vals = np.ones(100)
        m.build(idx, idx, vals, lazy=True)
        m.wait()
        grows = m._pend.grow_count
        for _ in range(10):
            m.build(idx, idx, vals, lazy=True)
            m.wait()
        assert m._pend.grow_count == grows


# --------------------------------------------------------------------------- #
# the one pending store: every site holds an arena that owns its input
# --------------------------------------------------------------------------- #


class TestPendingStoreSites:
    def test_matrix_pending_is_an_arena_in_both_key_modes(self):
        M = Matrix("fp64", 2**64, 2**64)
        assert isinstance(M._pend, arena.PendingArena) and M._pend.ncols == 2
        M.setElement(2**40, 1, 1.0)  # does not fit one key: (row, col, bits)
        assert M.key_spec is None
        assert isinstance(M._pend, arena.PendingArena) and M._pend.ncols == 3
        M.clear()  # back to key space
        assert isinstance(M._pend, arena.PendingArena) and M._pend.ncols == 2

    def test_vector_and_tracker_pending_are_arenas(self):
        v = Vector("fp64", 100)
        assert isinstance(v._pend, arena.PendingArena) and v._pend.ncols == 2
        # The tracker owns only its segment store: the raw window is layer 1's.
        keyed = IncrementalReductions(2**32, 2**32)
        assert keyed.fan_supported and keyed._segments.ncols == 2
        unpackable = IncrementalReductions(2**64, 2**64)
        assert not unpackable.fan_supported and unpackable._segments.ncols == 3
        for tracker in (keyed, unpackable):
            assert isinstance(tracker._segments, arena.PendingArena)
            assert not hasattr(tracker, "_backlog")


class TestCallerBuffersReusable:
    """A lazy build copies its batch at append time: no ``copy=`` is needed.

    Each case appends from caller-owned arrays, overwrites them before the
    flush, and checks the flushed content against the original batch.
    """

    def test_vector_lazy_build(self):
        idx = np.array([1, 2, 2], dtype=np.uint64)
        vals = np.array([1.0, 2.0, 3.0])
        v = Vector("fp64", 100)
        v.build(idx, vals, lazy=True)
        idx[:] = 7
        vals[:] = -1.0
        assert v.nvals == 2 and v[1] == 1.0 and v[2] == 5.0

    @pytest.mark.parametrize("shape", [2**32, 2**64], ids=["keyed", "demoted"])
    def test_matrix_lazy_build(self, shape):
        M = Matrix("fp64", shape, shape)
        if shape == 2**64:
            M.setElement(2**40, 0, 9.0)
            assert M.key_spec is None
        rows = np.array([1, 2, 2], dtype=np.uint64)
        cols = np.array([3, 4, 4], dtype=np.uint64)
        vals = np.array([1.0, 2.0, 3.0])
        M.build(rows, cols, vals, lazy=True)
        rows[:] = 0
        cols[:] = 0
        vals[:] = -1.0
        assert M[1, 3] == 1.0 and M[2, 4] == 5.0
        assert M.nvals == (3 if shape == 2**64 else 2)

    def test_hierarchy_update(self):
        rng = np.random.default_rng(5)
        H = HierarchicalMatrix(2**32, 2**32, cuts=[16, 64])
        flat = Matrix("fp64", 2**32, 2**32)
        rows = np.empty(20, dtype=np.uint64)
        cols = np.empty(20, dtype=np.uint64)
        vals = np.empty(20)
        for _ in range(6):  # one buffer set, refilled per batch
            rows[:] = rng.integers(0, 30, 20)
            cols[:] = rng.integers(0, 30, 20)
            vals[:] = rng.integers(1, 6, 20)
            H.update(rows, cols, vals)
            flat.build(rows.copy(), cols.copy(), vals.copy())
        rows[:] = 0
        vals[:] = -1.0
        assert H.materialize().isequal(flat, check_dtype=True)
        assert H.incremental.nnz() == flat.nvals
        assert float(H.incremental.total()) == float(flat.extract_tuples()[2].sum())
