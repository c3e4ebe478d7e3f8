"""Property tests for the packed-coordinate codec and the dual-engine kernels.

The contract under test: for every kernel in :mod:`repro.graphblas._kernels`,
the packed single-key engine and the dual-key lexsort fallback produce
bit-identical triples — across value dtypes, duplicate patterns, and boundary
coordinates (0, 2^32-1, 2^64-1).  The hypothesis suites drive both engines on
the same inputs via :func:`repro.graphblas.coords.packing_disabled`.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import HierarchicalMatrix
from repro.graphblas import Matrix, binary, coords
from repro.graphblas import _kernels as K

U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1

# Coordinate pools biased toward the packing boundaries: small, exactly at the
# 32-bit edge, just past it, and at the very top of the 64-bit space (which
# forces the lexsort fallback on both engines).
coordinate = st.one_of(
    st.integers(0, 50),
    st.sampled_from([0, U32_MAX - 1, U32_MAX, U32_MAX + 1]),
    st.sampled_from([2**40, 2**63, U64_MAX - 1, U64_MAX]),
)

value_dtype = st.sampled_from([np.float64, np.float32, np.int64, np.uint64, np.int32])

dup_ops = st.sampled_from(["plus", "second", "first", "min", "max", "times"])


def make_triples(draw_pairs, dtype):
    rows = np.array([p[0] for p in draw_pairs], dtype=np.uint64)
    cols = np.array([p[1] for p in draw_pairs], dtype=np.uint64)
    vals = (np.arange(rows.size) % 7 + 1).astype(dtype)
    return rows, cols, vals


triple_lists = st.lists(st.tuples(coordinate, coordinate), min_size=0, max_size=120)


def assert_triples_equal(a, b):
    for x, y in zip(a, b):
        assert x.dtype == y.dtype or x.dtype.kind == y.dtype.kind
        assert np.array_equal(x, y)


class TestCodec:
    def test_plan_prefers_ipv4_split(self):
        spec = coords.plan_split(U32_MAX, U32_MAX)
        assert spec == coords.PackedSpec(32, 32)

    def test_plan_gives_columns_needed_bits(self):
        spec = coords.plan_split(2**40, 2**20)
        assert spec is not None
        assert spec.col_bits == 21  # bit_length(2**20) = 21
        assert spec.row_bits == 43

    def test_plan_rejects_full_64bit(self):
        assert coords.plan_split(U64_MAX, 1) is None
        assert coords.plan_split(2**33, 2**31) is None
        # Full 64-bit rows always fall back (columns reserve at least one bit).
        assert coords.plan_split(U64_MAX, 0) is None
        # 63-bit rows with boolean-sized columns still pack.
        assert coords.plan_split(2**63 - 1, 1) == coords.PackedSpec(63, 1)

    def test_plan_respects_disable_switch(self):
        with coords.packing_disabled():
            assert coords.plan_split(1, 1) is None
            assert coords.plan_pack(
                (np.array([1], dtype=np.uint64), np.array([1], dtype=np.uint64))
            ) is None
        assert coords.plan_split(1, 1) is not None

    def test_empty_arrays_plan_canonically(self):
        empty = np.empty(0, dtype=np.uint64)
        assert coords.plan_pack((empty, empty)) == coords.PackedSpec(32, 32)

    @given(pairs=triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_pack_roundtrip_and_monotonicity(self, pairs):
        rows = np.array([p[0] for p in pairs], dtype=np.uint64)
        cols = np.array([p[1] for p in pairs], dtype=np.uint64)
        spec = coords.plan_pack((rows, cols))
        if spec is None:
            return  # coordinates genuinely exceed one 64-bit key
        keys = coords.pack(rows, cols, spec)
        r2, c2 = coords.unpack(keys, spec)
        assert np.array_equal(r2, rows)
        assert np.array_equal(c2, cols)
        # Packing preserves lexicographic order exactly.
        order_lex = np.lexsort((cols, rows))
        order_key = np.argsort(keys, kind="stable")
        assert np.array_equal(order_lex, order_key)


class TestEngineParity:
    """Packed engine vs lexsort fallback: bit-identical on every kernel."""

    @given(pairs=triple_lists, dtype=value_dtype, op_name=dup_ops)
    @settings(max_examples=80, deadline=None)
    def test_build_triples_parity(self, pairs, dtype, op_name):
        rows, cols, vals = make_triples(pairs, dtype)
        op = binary[op_name]
        packed = K.build_triples(rows, cols, vals, op)
        with coords.packing_disabled():
            fallback = K.build_triples(rows, cols, vals, op)
        assert_triples_equal(packed, fallback)

    @given(pairs=triple_lists, dtype=value_dtype)
    @settings(max_examples=60, deadline=None)
    def test_sort_collapse_parity(self, pairs, dtype):
        rows, cols, vals = make_triples(pairs, dtype)
        packed = K.collapse_duplicates(*K.sort_coo(rows, cols, vals), binary.plus)
        with coords.packing_disabled():
            fallback = K.collapse_duplicates(*K.sort_coo(rows, cols, vals), binary.plus)
        assert_triples_equal(packed, fallback)

    @given(
        pairs_a=triple_lists,
        pairs_b=triple_lists,
        dtype=value_dtype,
        op_name=st.sampled_from(["plus", "second", "minus", "min"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_union_merge_parity(self, pairs_a, pairs_b, dtype, op_name):
        a = K.build_triples(*make_triples(pairs_a, dtype), binary.plus)
        b = K.build_triples(*make_triples(pairs_b, dtype), binary.plus)
        op = binary[op_name]
        packed = K.union_merge(a, b, op)
        with coords.packing_disabled():
            fallback = K.union_merge(a, b, op)
        assert_triples_equal(packed, fallback)

    @given(
        pairs_a=triple_lists,
        pairs_b=triple_lists,
        dtype=value_dtype,
        op_name=st.sampled_from(["times", "plus", "minus", "eq"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_intersect_merge_parity(self, pairs_a, pairs_b, dtype, op_name):
        a = K.build_triples(*make_triples(pairs_a, dtype), binary.plus)
        b = K.build_triples(*make_triples(pairs_b, dtype), binary.plus)
        op = binary[op_name]
        packed = K.intersect_merge(a, b, op)
        with coords.packing_disabled():
            fallback = K.intersect_merge(a, b, op)
        assert_triples_equal(packed, fallback)

    @given(pairs=triple_lists, queries=triple_lists)
    @settings(max_examples=60, deadline=None)
    def test_search_sorted_parity(self, pairs, queries):
        rows, cols, _ = K.build_triples(*make_triples(pairs, np.float64), binary.plus)
        qr = np.array([q[0] for q in queries], dtype=np.uint64)
        qc = np.array([q[1] for q in queries], dtype=np.uint64)
        packed = K.search_sorted_coo(rows, cols, qr, qc)
        with coords.packing_disabled():
            fallback = K.search_sorted_coo(rows, cols, qr, qc)
        assert np.array_equal(packed, fallback)
        # Cross-check against a dictionary reference.
        index = {(int(r), int(c)): i for i, (r, c) in enumerate(zip(rows, cols))}
        expected = np.array(
            [index.get((int(r), int(c)), -1) for r, c in zip(qr, qc)], dtype=np.int64
        )
        assert np.array_equal(packed, expected)


class TestMatrixAndHierarchyParity:
    """End-to-end parity: whole containers built on each engine are equal."""

    @given(pairs=triple_lists, dtype=value_dtype)
    @settings(max_examples=40, deadline=None)
    def test_matrix_build_parity(self, pairs, dtype):
        rows, cols, vals = make_triples(pairs, dtype)
        a = Matrix(np.dtype(dtype).name.replace("float", "fp"), 2**64, 2**64)
        a.build(rows, cols, vals)
        with coords.packing_disabled():
            b = Matrix(np.dtype(dtype).name.replace("float", "fp"), 2**64, 2**64)
            b.build(rows, cols, vals)
            assert a.isequal(b)

    @given(pairs=triple_lists)
    @settings(max_examples=30, deadline=None)
    def test_lazy_build_matches_eager(self, pairs):
        rows, cols, vals = make_triples(pairs, np.float64)
        lazy = Matrix("fp64", 2**64, 2**64)
        eager = Matrix("fp64", 2**64, 2**64)
        # Feed in two chunks so the lazy path exercises multi-batch pending.
        half = rows.size // 2
        for lo, hi in ((0, half), (half, rows.size)):
            if hi > lo:
                lazy.build(rows[lo:hi], cols[lo:hi], vals[lo:hi], lazy=True)
                eager.build(rows[lo:hi], cols[lo:hi], vals[lo:hi])
        assert lazy.isequal(eager)

    def test_deferred_hierarchy_matches_eager(self):
        """The deferred cascade equals a flat matrix accumulated batch by batch."""
        rng = np.random.default_rng(5)
        deferred = HierarchicalMatrix(2**32, 2**32, "fp64", cuts=[50, 400])
        eager = Matrix("fp64", 2**32, 2**32)
        for _ in range(30):
            n = int(rng.integers(1, 80))
            rows = rng.integers(0, 500, n, dtype=np.uint64)
            cols = rng.integers(0, 500, n, dtype=np.uint64)
            deferred.update(rows, cols, 1.0)
            eager.build(rows, cols, 1.0)
        assert sum(deferred.stats.cascades) > 0
        assert deferred.materialize().isequal(eager, check_dtype=True)

    def test_lazy_build_non_associative_op_runs_eager(self):
        """Matrix.build ignores lazy= for non-associative dup_ops (regrouping)."""
        m = Matrix("fp64", 100, 100)
        m.build([1], [1], [10.0], dup_op=binary.minus)
        m.build([1], [1], [5.0], dup_op=binary.minus, lazy=True)
        m.build([1], [1], [3.0], dup_op=binary.minus, lazy=True)
        assert not m.has_pending
        assert m[1, 1] == 2.0  # (10 - 5) - 3, never 10 - (5 - 3)

    def test_non_associative_accum_keeps_eager_semantics(self):
        """Deferral regroups batches, so minus/div must ingest eagerly."""
        H = HierarchicalMatrix(100, 100, "fp64", cuts=[50], accum=binary.minus)
        for vals in ([10.0], [5.0], [3.0]):
            H.update([1], [1], vals)
            assert not H.layers[0].has_pending
        # Sequential left-fold: (10 - 5) - 3, not 10 - (5 - 3).
        assert H[1, 1] == 2.0

    def test_empty_lazy_builds_do_not_accumulate_buffers(self):
        m = Matrix("fp64", 100, 100)
        for _ in range(100):
            m.build([], [], [], lazy=True)
        assert not m.has_pending
        assert m._pend.used == 0

    def test_setelement_interleaved_with_lazy_build(self):
        """Switching pending operators flushes; replace-then-add semantics hold."""
        m = Matrix("fp64", 100, 100)
        m.setElement(1, 1, 5.0)       # pending under `second`
        m.build([1], [1], [2.0], dup_op=binary.plus, lazy=True)  # flushes, then pends
        m.setElement(1, 1, 9.0)       # flushes the plus buffer, pends replace
        assert m[1, 1] == 9.0
        m.build([1], [1], [4.0], dup_op=binary.plus, lazy=True)
        assert m[1, 1] == 13.0


# --------------------------------------------------------------------------- #
# the keyed store: (keys, vals) authoritative, rows/cols derived
# --------------------------------------------------------------------------- #

NAN_PAYLOAD = float(np.array([0x7FF8_0000_0000_BEEF], dtype=np.uint64).view(np.float64)[0])

#: Values on both sides of the uniform-window exactness guard: countable
#: integers, integers whose n*s straddles 2**53 for the batch sizes drawn
#: below, inexact decimals, negatives, zero, a NaN with a payload.
FP64_VALUES = [1.0, 3.0, -2.0, float(2**50), float(2**52 + 1), 0.1, 0.3, 0.0, NAN_PAYLOAD]
#: int32: small, and large enough that a handful of additions wraps.
INT32_VALUES = [1, 7, -3, 2**27, 2**30]

# A tiny coordinate pool: long runs of one coordinate inside a window, which
# is where count * s and repeated addition can part ways.
small_coordinate = st.sampled_from([0, 1, U32_MAX])
pair_list = st.lists(st.tuples(small_coordinate, small_coordinate), min_size=1, max_size=40)


def stream_ops(pairs, values):
    """One mutation of a Matrix: (kind, coordinates, value-or-values)."""
    value = st.sampled_from(values)
    return st.one_of(
        st.tuples(st.just("scalar"), pairs, value),
        st.tuples(st.just("uniform"), pairs, value),
        st.tuples(st.just("mixed"), pairs, st.lists(value, min_size=3, max_size=3)),
        st.tuples(st.just("set"), pairs, value),
        st.tuples(st.just("min"), pairs, value),
        st.tuples(st.just("merge"), pairs, value),
        st.tuples(st.just("wait"), pairs, value),
    )


def apply_op(M, op, dtype, *, lazy=True):
    kind, pairs, value = op
    rows = np.array([p[0] for p in pairs], dtype=np.uint64)
    cols = np.array([p[1] for p in pairs], dtype=np.uint64)
    if kind == "scalar":
        M.build(rows, cols, value, lazy=lazy)
    elif kind == "uniform":
        M.build(rows, cols, np.full(rows.size, value, dtype=dtype), lazy=lazy)
    elif kind == "mixed":
        M.build(rows, cols, np.resize(np.array(value, dtype=dtype), rows.size), lazy=lazy)
    elif kind == "set":
        for r, c in pairs[:3]:
            M.setElement(r, c, value)
    elif kind == "min":
        M.build(rows, cols, value, dup_op=binary.min, lazy=lazy)
    elif kind == "merge":
        other = Matrix(M.dtype, M.nrows, M.ncols)
        other.build(rows, cols, np.full(rows.size, value, dtype=dtype))
        M.update(other)
    else:
        M.wait()


def coo_bits(M):
    rows, cols, vals = M.to_coo()
    return rows, cols, vals.view(f"u{vals.dtype.itemsize}")


def assert_bit_identical(a, b):
    assert a.dtype is b.dtype
    for x, y in zip(coo_bits(a), coo_bits(b)):
        assert np.array_equal(x, y)


class TestKeyedStore:
    """The keyed streaming path against the dual-key reference, bit for bit."""

    @given(ops=st.lists(stream_ops(pair_list, FP64_VALUES), min_size=1, max_size=12))
    # Long runs of one coordinate in one uniform window, on the far side of
    # each half of the guard (integrality; the 2**53 bound).
    @example(ops=[("scalar", [(0, 0)] * 12, 0.1)])
    @example(ops=[("uniform", [(1, 1)] * 6 + [(0, 1)], float(2**52 + 1))])
    @example(ops=[("scalar", [(1, 0)] * 7, 0.3), ("uniform", [(1, 0)] * 7, 0.3)])
    @settings(max_examples=120, deadline=None)
    def test_fp64_stream_matches_reference_engine(self, ops):
        keyed = Matrix("fp64", 2**32, 2**32)
        for op in ops:
            apply_op(keyed, op, np.float64)
        with coords.packing_disabled():
            reference = Matrix("fp64", 2**32, 2**32)
            for op in ops:
                apply_op(reference, op, np.float64)
            reference.wait()
        assert keyed.key_spec == coords.IPV4_SPEC
        assert_bit_identical(keyed, reference)

    @given(ops=st.lists(stream_ops(pair_list, INT32_VALUES), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_int32_stream_matches_reference_engine(self, ops):
        keyed = Matrix("int32", 2**32, 2**32)
        for op in ops:
            apply_op(keyed, op, np.int32)
        with coords.packing_disabled():
            reference = Matrix("int32", 2**32, 2**32)
            for op in ops:
                apply_op(reference, op, np.int32)
            reference.wait()
        assert_bit_identical(keyed, reference)

    @given(
        ops=st.lists(
            stream_ops(pair_list, [1.0, 3.0, -2.0, float(2**20), 0.5]), min_size=1, max_size=12
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_deferred_stream_matches_eager_flat_matrix(self, ops):
        """Exactly representable values: regrouping by the deferred flush is invisible."""
        deferred = Matrix("fp64", 2**32, 2**32)
        flat = Matrix("fp64", 2**32, 2**32)
        for op in ops:
            apply_op(deferred, op, np.float64)
            apply_op(flat, op, np.float64, lazy=False)
        assert_bit_identical(deferred, flat)

    @given(
        ops=st.lists(
            stream_ops(
                st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=25),
                [1.0, 3.0, 0.1],
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_coordinates_straddling_the_key_spec_demote_before_store(self, ops):
        """On a shape too large for one key, a misfit demotes first: nothing aliases."""
        keyed = Matrix("fp64", 2**64, 2**64)
        fits = True
        for op in ops:
            apply_op(keyed, op, np.float64)
            if op[0] != "wait":
                touched = op[1][:3] if op[0] == "set" else op[1]
                fits = fits and all(max(p) <= U32_MAX for p in touched)
            assert (keyed.key_spec is not None) == fits
        with coords.packing_disabled():
            reference = Matrix("fp64", 2**64, 2**64)
            for op in ops:
                apply_op(reference, op, np.float64)
            reference.wait()
        assert_bit_identical(keyed, reference)

    def test_demotion_keeps_the_pending_window_in_order(self):
        M = Matrix("fp64", 2**64, 2**64)
        M.setElement(5, 6, 1.0)
        M.setElement(5, 6, 2.0)
        assert M.key_spec is not None and M.has_pending
        M.setElement(2**40, 6, 9.0)  # does not fit 32/32: demote, then store
        assert M.key_spec is None and M.has_pending
        M.setElement(5, 6, 3.0)
        assert M[5, 6] == 3.0 and M[2**40, 6] == 9.0 and M.nvals == 2
        M.clear()
        assert M.key_spec == coords.IPV4_SPEC and M.nvals == 0

    def test_rows_and_cols_are_dropped_on_mutation(self):
        M = Matrix("fp64", 2**32, 2**32).build([3, 1, 3], [4, 2, 4], 1.0)
        stored = M.memory_breakdown["stored_bytes"]
        assert stored == 2 * 16  # one key + one value per entry
        assert np.array_equal(M.reduce_rowwise().to_coo()[0], [1, 3])  # derives rows/cols
        assert M.memory_breakdown["stored_bytes"] == stored + 2 * 16
        M.build([9], [9], 1.0)
        assert M.memory_breakdown["stored_bytes"] == 3 * 16

    def test_point_reads_do_not_unpack_the_store(self):
        M = Matrix("fp64", 2**32, 2**32).build([3, 1], [4, 2], [7.0, 8.0])
        assert M[3, 4] == 7.0 and M.get(3, 5) is None and (1, 2) in M
        assert M._rc is None and M.nvals == 2


class TestPackOnce:
    """The pack-count contract (replaces the old "2 packs per flush" pin)."""

    @staticmethod
    def batches(n, size, seed=11):
        rng = np.random.default_rng(seed)
        return [
            (
                rng.integers(0, 2**20, size, dtype=np.uint64),
                rng.integers(0, 2**20, size, dtype=np.uint64),
            )
            for _ in range(n)
        ]

    def test_flush_and_cascade_merge_never_pack(self):
        M = Matrix("fp64", 2**32, 2**32)
        (r0, c0), (r1, c1) = self.batches(2, 500)
        M.build(r0, c0, 1.0)  # non-empty stored side
        M.build(r1, c1, 1.0, lazy=True)
        upper = Matrix("fp64", 2**32, 2**32).build(r0, c1, 2.0)
        before = coords.pack_calls()
        M.wait()  # flush: sort-collapse + merge, in key space
        upper.update(M)  # cascade merge: key to key
        assert coords.pack_calls() == before

    def test_one_pack_per_update_batch(self):
        H = HierarchicalMatrix(2**32, 2**32, cuts=[64, 512])
        batches = self.batches(40, 50)
        before = coords.pack_calls()
        for rows, cols in batches:
            H.update(rows, cols, 1)
        H.wait()
        H.incremental.nnz()  # tracker catch-up included
        assert H.stats.cascades[0] > 0
        assert coords.pack_calls() - before == len(batches)

    def test_update_packed_never_packs(self):
        H = HierarchicalMatrix(2**32, 2**32, cuts=[64, 512])
        reference = HierarchicalMatrix(2**32, 2**32, cuts=[64, 512])
        keyed = [
            (rows, cols, coords.pack(rows, cols, coords.IPV4_SPEC))
            for rows, cols in self.batches(40, 50)
        ]
        before = coords.pack_calls()
        for i, (_, _, keys) in enumerate(keyed):
            H.update_packed(keys, 1 if i % 2 else np.full(keys.size, 2.0))
        H.wait()
        assert coords.pack_calls() == before
        for i, (rows, cols, _) in enumerate(keyed):
            reference.update(rows, cols, 1 if i % 2 else np.full(rows.size, 2.0))
        assert H.materialize().isequal(reference.materialize(), check_dtype=True)
        assert H.incremental.row_traffic().isequal(reference.incremental.row_traffic())

    def test_update_packed_validates_keys_and_shape(self):
        from repro.graphblas.errors import IndexOutOfBound, InvalidValue

        small = HierarchicalMatrix(1000, 1000, cuts=[8])
        spec = coords.shape_split(1000, 1000)
        ok = coords.pack(np.array([999], np.uint64), np.array([999], np.uint64), spec)
        small.update_packed(ok, 1)
        assert small.get(999, 999) == 1.0
        for row, col in ((1000, 0), (0, 1000)):
            bad = coords.pack(np.array([row], np.uint64), np.array([col], np.uint64), spec)
            with pytest.raises(IndexOutOfBound):
                small.update_packed(bad, 1)
        with pytest.raises(InvalidValue):
            HierarchicalMatrix(cuts=[8]).update_packed(ok, 1)  # 2^64 x 2^64: no key form


class TestExtractParity:
    """The ``extract`` fast path (sorted membership join) vs the np.isin reference.

    The fast path is gated on the same toggle as the packed kernels, so
    ``packing_disabled`` drives the reference engine on identical inputs —
    outputs must be bit-identical.
    """

    @given(
        pairs=triple_lists,
        sel=st.lists(coordinate, max_size=20),
        reindex=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_extract_parity(self, pairs, sel, reindex):
        rows, cols, vals = make_triples(pairs, np.float64)
        A = Matrix("fp64", 2**64, 2**64).build(rows, cols, vals)
        selection = np.array(sel, dtype=np.uint64)
        fast = A.extract(selection, selection, reindex=reindex)
        with coords.packing_disabled():
            reference = A.extract(selection, selection, reindex=reindex)
        assert fast.isequal(reference, check_dtype=True)

    def test_sorted_membership_matches_isin(self):
        rng = np.random.default_rng(3)
        values = np.sort(rng.integers(0, 1000, 500, dtype=np.uint64))
        selection = rng.integers(0, 1000, 40, dtype=np.uint64)  # unsorted, dups
        got = K.sorted_membership(values, selection)
        assert np.array_equal(got, np.isin(values, selection))
        empty = np.empty(0, dtype=np.uint64)
        assert K.sorted_membership(empty, selection).size == 0
        assert not K.sorted_membership(values, empty).any()


class TestSearchScaling:
    def test_point_and_bulk_query_paths_agree(self):
        """The <=32-query fast path and the vectorised bulk path match."""
        rng = np.random.default_rng(23)
        rows, cols, _ = K.build_triples(
            rng.integers(0, 1000, 2_000, dtype=np.uint64),
            rng.integers(0, 1000, 2_000, dtype=np.uint64),
            np.ones(2_000),
            binary.plus,
        )
        qr = rng.integers(0, 1000, 40, dtype=np.uint64)
        qc = rng.integers(0, 1000, 40, dtype=np.uint64)
        bulk = K.search_sorted_coo(rows, cols, qr, qc)  # 40 > 32: vectorised
        one_by_one = np.concatenate(
            [K.search_sorted_coo(rows, cols, qr[i : i + 1], qc[i : i + 1]) for i in range(40)]
        )
        assert np.array_equal(bulk, one_by_one)

    def test_search_sorted_handles_bulk_queries(self):
        """Regression: >=10k point queries stay vectorised (no per-query loop)."""
        rng = np.random.default_rng(17)
        n, nq = 50_000, 20_000
        rows, cols, _ = K.build_triples(
            rng.integers(0, 2**32, n, dtype=np.uint64),
            rng.integers(0, 2**32, n, dtype=np.uint64),
            np.ones(n),
            binary.plus,
        )
        pick = rng.integers(0, rows.size, nq // 2)
        qr = np.concatenate([rows[pick], rng.integers(0, 2**32, nq // 2, dtype=np.uint64)])
        qc = np.concatenate([cols[pick], rng.integers(0, 2**32, nq // 2, dtype=np.uint64)])
        for force_fallback in (False, True):
            if force_fallback:
                with coords.packing_disabled():
                    start = time.perf_counter()
                    out = K.search_sorted_coo(rows, cols, qr, qc)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                out = K.search_sorted_coo(rows, cols, qr, qc)
                elapsed = time.perf_counter() - start
            assert (out[: nq // 2] >= 0).all()
            assert np.array_equal(rows[out[: nq // 2]], qr[: nq // 2])
            # Generous bound: quadratic or per-query-loop behaviour would blow
            # far past this even on slow CI machines.
            assert elapsed < 2.0
