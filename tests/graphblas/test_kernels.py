"""Tests for the low-level sorted-COO kernels."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphblas import _kernels as K
from repro.graphblas import coords
from repro.graphblas.binaryop import binary
from repro.graphblas.errors import InvalidIndex


def make(rows, cols, vals, dtype=np.float64):
    return (
        np.asarray(rows, dtype=np.uint64),
        np.asarray(cols, dtype=np.uint64),
        np.asarray(vals, dtype=dtype),
    )


class TestAsIndexArray:
    def test_list_of_ints(self):
        out = K.as_index_array([1, 2, 3])
        assert out.dtype == np.uint64
        assert np.array_equal(out, [1, 2, 3])

    def test_large_ints_preserved_exactly(self):
        out = K.as_index_array([2**63, 2**64 - 1, 5])
        assert out[0] == 2**63
        assert out[1] == 2**64 - 1

    def test_scalar(self):
        assert np.array_equal(K.as_index_array(7), [7])

    def test_negative_rejected(self):
        with pytest.raises(InvalidIndex):
            K.as_index_array([-1, 2])

    def test_fractional_float_rejected(self):
        with pytest.raises(InvalidIndex):
            K.as_index_array(np.array([1.5, 2.0]))

    def test_integral_float_accepted(self):
        out = K.as_index_array(np.array([1.0, 2.0]))
        assert np.array_equal(out, [1, 2])

    def test_negative_float_rejected(self):
        with pytest.raises(InvalidIndex):
            K.as_index_array(np.array([-1.0]))

    def test_2d_rejected(self):
        with pytest.raises(InvalidIndex):
            K.as_index_array(np.zeros((2, 2)))

    def test_int_array_passthrough(self):
        out = K.as_index_array(np.array([3, 4], dtype=np.int32))
        assert out.dtype == np.uint64

    def test_bool_array(self):
        out = K.as_index_array(np.array([True, False]))
        assert np.array_equal(out, [1, 0])


class TestSortCoo:
    def test_already_sorted_passthrough(self):
        r, c, v = make([0, 0, 1], [1, 2, 0], [1, 2, 3])
        rs, cs, vs = K.sort_coo(r, c, v)
        assert rs is r and cs is c and vs is v

    def test_unsorted_gets_sorted(self):
        r, c, v = make([1, 0, 0], [0, 2, 1], [3, 2, 1])
        rs, cs, vs = K.sort_coo(r, c, v)
        assert np.array_equal(rs, [0, 0, 1])
        assert np.array_equal(cs, [1, 2, 0])
        assert np.array_equal(vs, [1, 2, 3])

    def test_stable_for_duplicates(self):
        r, c, v = make([0, 0], [1, 1], [10, 20])
        rs, cs, vs = K.sort_coo(r, c, v)
        assert np.array_equal(vs, [10, 20])  # original order preserved

    def test_empty_and_singleton(self):
        r, c, v = make([], [], [])
        assert K.sort_coo(r, c, v)[0].size == 0
        r, c, v = make([5], [6], [1.0])
        assert K.sort_coo(r, c, v)[2][0] == 1.0


class TestGroupStarts:
    def test_no_duplicates(self):
        r, c, _ = make([0, 1, 2], [0, 0, 0], [1, 1, 1])
        assert np.array_equal(K.group_starts(r, c), [0, 1, 2])

    def test_with_duplicates(self):
        r, c, _ = make([0, 0, 0, 1], [1, 1, 2, 0], [1, 1, 1, 1])
        assert np.array_equal(K.group_starts(r, c), [0, 2, 3])

    def test_empty(self):
        r, c, _ = make([], [], [])
        assert K.group_starts(r, c).size == 0


class TestCollapseDuplicates:
    def test_plus_collapse(self):
        r, c, v = make([0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
        rs, cs, vs = K.collapse_duplicates(r, c, v, binary.plus)
        assert np.array_equal(rs, [0, 1])
        assert np.array_equal(vs, [3.0, 5.0])

    def test_first_and_second(self):
        r, c, v = make([0, 0], [1, 1], [1.0, 2.0])
        assert K.collapse_duplicates(r, c, v, binary.first)[2][0] == 1.0
        assert K.collapse_duplicates(r, c, v, binary.second)[2][0] == 2.0

    def test_min_collapse(self):
        r, c, v = make([0, 0, 0], [1, 1, 1], [5.0, 2.0, 7.0])
        assert K.collapse_duplicates(r, c, v, binary.min)[2][0] == 2.0

    def test_default_is_plus(self):
        r, c, v = make([0, 0], [1, 1], [1.0, 2.0])
        assert K.collapse_duplicates(r, c, v)[2][0] == 3.0

    def test_no_duplicates_passthrough(self):
        r, c, v = make([0, 1], [1, 1], [1.0, 2.0])
        rs, cs, vs = K.collapse_duplicates(r, c, v, binary.plus)
        assert np.array_equal(vs, [1.0, 2.0])

    def test_non_ufunc_op_fallback(self):
        r, c, v = make([0, 0, 0], [1, 1, 1], [1.0, 2.0, 4.0])
        avg_like = binary.register("testtakefirstplus1", lambda x, y: x + 1)
        rs, cs, vs = K.collapse_duplicates(r, c, v, avg_like)
        assert vs[0] == 3.0  # ((1+1)+1)


class TestUnionMerge:
    def test_disjoint(self):
        a = make([0], [0], [1.0])
        b = make([1], [1], [2.0])
        r, c, v = K.union_merge(a, b, binary.plus)
        assert np.array_equal(r, [0, 1])
        assert np.array_equal(v, [1.0, 2.0])

    def test_overlap_applies_op(self):
        a = make([0, 1], [0, 1], [1.0, 10.0])
        b = make([1, 2], [1, 2], [5.0, 7.0])
        r, c, v = K.union_merge(a, b, binary.plus)
        assert np.array_equal(r, [0, 1, 2])
        assert np.array_equal(v, [1.0, 15.0, 7.0])

    def test_argument_order_for_noncommutative_op(self):
        a = make([0], [0], [10.0])
        b = make([0], [0], [3.0])
        _, _, v = K.union_merge(a, b, binary.minus)
        assert v[0] == 7.0  # a - b, not b - a
        _, _, v2 = K.union_merge(a, b, binary.second)
        assert v2[0] == 3.0

    def test_empty_operands(self):
        a = make([], [], [])
        b = make([0], [1], [2.0])
        r, c, v = K.union_merge(a, b, binary.plus)
        assert np.array_equal(v, [2.0])
        r, c, v = K.union_merge(b, a, binary.plus)
        assert np.array_equal(v, [2.0])

    def test_identical_patterns(self):
        a = make([0, 1], [1, 2], [1.0, 2.0])
        b = make([0, 1], [1, 2], [10.0, 20.0])
        r, c, v = K.union_merge(a, b, binary.plus)
        assert np.array_equal(v, [11.0, 22.0])
        assert r.size == 2

    def test_output_dtype_promotion(self):
        a = (np.array([0], dtype=np.uint64), np.array([0], dtype=np.uint64), np.array([1], dtype=np.int32))
        b = (np.array([0], dtype=np.uint64), np.array([0], dtype=np.uint64), np.array([0.5]))
        _, _, v = K.union_merge(a, b, binary.plus)
        assert v[0] == pytest.approx(1.5)

    def test_result_is_sorted_and_unique(self):
        rng = np.random.default_rng(3)
        def rand_set(n, seed):
            r = np.random.default_rng(seed)
            rows = r.integers(0, 50, n).astype(np.uint64)
            cols = r.integers(0, 50, n).astype(np.uint64)
            vals = np.ones(n)
            rows, cols, vals = K.sort_coo(rows, cols, vals)
            return K.collapse_duplicates(rows, cols, vals, binary.plus)
        a = rand_set(200, 1)
        b = rand_set(200, 2)
        r, c, v = K.union_merge(a, b, binary.plus)
        order = np.lexsort((c, r))
        assert np.array_equal(order, np.arange(r.size))
        starts = K.group_starts(r, c)
        assert starts.size == r.size  # no duplicates


class TestIntersectMerge:
    def test_basic_intersection(self):
        a = make([0, 1], [0, 1], [2.0, 3.0])
        b = make([1, 2], [1, 2], [5.0, 7.0])
        r, c, v = K.intersect_merge(a, b, binary.times)
        assert np.array_equal(r, [1])
        assert np.array_equal(v, [15.0])

    def test_no_overlap(self):
        a = make([0], [0], [1.0])
        b = make([5], [5], [1.0])
        r, c, v = K.intersect_merge(a, b, binary.times)
        assert r.size == 0

    def test_empty_operand(self):
        a = make([], [], [])
        b = make([1], [1], [1.0])
        assert K.intersect_merge(a, b, binary.times)[0].size == 0

    def test_noncommutative_order(self):
        a = make([0], [0], [10.0])
        b = make([0], [0], [4.0])
        _, _, v = K.intersect_merge(a, b, binary.minus)
        assert v[0] == 6.0

    def test_bool_result_op(self):
        a = make([0], [0], [3.0])
        b = make([0], [0], [3.0])
        _, _, v = K.intersect_merge(a, b, binary.eq)
        assert v.dtype == np.bool_
        assert v[0] == True  # noqa: E712


class TestSearch:
    def test_search_sorted_coo(self):
        rows, cols, _ = make([0, 0, 2], [1, 5, 3], [1, 1, 1])
        pos = K.search_sorted_coo(rows, cols, [0, 2, 2], [5, 3, 99])
        assert np.array_equal(pos, [1, 2, -1])

    def test_search_empty(self):
        empty = np.empty(0, dtype=np.uint64)
        pos = K.search_sorted_coo(empty, empty, [1], [1])
        assert pos[0] == -1


# --------------------------------------------------------------------------- #
# the two keyed kernels (what Matrix / Vector / the tracker run on)
# --------------------------------------------------------------------------- #


def bits(values):
    """Values as raw unsigned bit patterns, so NaN payloads and -0.0 compare."""
    values = np.ascontiguousarray(values)
    return values.view(f"u{values.dtype.itemsize}")


def reference_collapse(keys, vals, op):
    """The dual-key lexsort engine: the behaviour every keyed path must reproduce."""
    with coords.packing_disabled():
        rows, _, out = K.build_triples(keys, np.zeros_like(keys), vals, op)
    return rows, out


#: (dtype, value) pairs on both sides of the exactness guard.  ``n`` below is
#: 64, so ``2**47`` keeps ``n * s`` under 2**53 and ``2**48`` puts it over.
GUARD_VALUES = [
    (np.float64, 1.0),
    (np.float64, 7.0),
    (np.float64, -3.0),
    (np.float64, float(2**47 - 1)),
    (np.float64, float(2**48)),
    (np.float64, float(2**53)),
    (np.float64, 0.1),
    (np.float64, 0.5),
    (np.float64, 0.0),
    (np.float64, -0.0),
    (np.float64, np.inf),
    (np.float32, 3.0),
    (np.float32, float(2**19)),
    (np.int64, 5),
    (np.int64, -5),
    (np.int32, 2**24),
    (np.int32, 2**26),
    (np.uint64, 2**40),
    (np.bool_, True),
]


class TestSortCollapseKeys:
    N = 64

    def keys(self, seed=0):
        # Few distinct keys: long runs, unsorted arrival order.
        return np.random.default_rng(seed).integers(0, 9, self.N).astype(np.uint64)

    @pytest.mark.parametrize("dtype,value", GUARD_VALUES)
    def test_uniform_window_equals_stable_fold(self, dtype, value):
        keys = self.keys()
        vals = np.full(self.N, value, dtype=dtype)
        got_k, got_v = K.sort_collapse_keys(keys, vals, binary.plus)
        ref_k, ref_v = reference_collapse(keys, vals, binary.plus)
        assert np.array_equal(got_k, ref_k)
        assert got_v.dtype == ref_v.dtype
        assert np.array_equal(bits(got_v), bits(ref_v))

    def test_nan_payloads_survive(self):
        keys = self.keys(1)
        payload = np.array([0x7FF8_0000_0000_BEEF], dtype=np.uint64).view(np.float64)[0]
        vals = np.full(self.N, payload)
        got_k, got_v = K.sort_collapse_keys(keys, vals, binary.plus)
        ref_k, ref_v = reference_collapse(keys, vals, binary.plus)
        assert np.array_equal(got_k, ref_k)
        assert np.array_equal(bits(got_v), bits(ref_v))

    def test_guard_proves_or_declines(self):
        n = self.N
        proven = [
            np.full(n, 1.0),
            np.full(n, -3.0),
            np.full(n, float(2**47 - 1)),
            np.full(n, 3.0, dtype=np.float32),
            np.full(n, 2**24, dtype=np.int32),
            np.full(n, 2**40, dtype=np.uint64),
        ]
        for vals in proven:
            assert K._countable_scalar(vals) == vals[0]
        declined = [
            np.full(n, 0.1),  # not integral
            np.full(n, 0.0),  # zero: nothing to count
            np.full(n, -0.0),
            np.full(n, np.nan),
            np.full(n, np.inf),
            np.full(n, float(2**47)),  # n * s == 2**53 exactly: not provable
            np.full(n, float(2**60)),
            np.full(n, float(2**19), dtype=np.float32),  # 2**25 > 2**24
            np.full(n, 2**26, dtype=np.int32),  # n * s overflows int32
            np.full(n, True),
            np.arange(n, dtype=np.float64),  # not uniform
            np.where(np.arange(n) % 2, 0.0, -0.0),  # equal values, unequal bits
        ]
        for vals in declined:
            assert K._countable_scalar(vals) is None

    def test_count_path_never_runs_unproven(self, monkeypatch):
        """A window the guard declines must pay the stable argsort."""
        called = []
        real_argsort = np.argsort

        def spy(a, *args, **kwargs):
            called.append(kwargs.get("kind"))
            return real_argsort(a, *args, **kwargs)

        monkeypatch.setattr(K.np, "argsort", spy)
        keys = self.keys(2)
        K.sort_collapse_keys(keys, np.full(self.N, 1.0), binary.plus)
        assert called == []  # proven: key sort + run lengths only
        K.sort_collapse_keys(keys, np.full(self.N, 0.1), binary.plus)
        K.sort_collapse_keys(keys, np.full(self.N, 1.0), binary.second)
        assert called == ["stable", "stable"]

    @pytest.mark.parametrize("op_name", ["plus", "second", "first", "min", "max", "times"])
    def test_mixed_window_is_stable(self, op_name):
        keys = self.keys(3)
        vals = (np.arange(self.N) % 5 + 1).astype(np.float64)
        op = binary[op_name]
        got = K.sort_collapse_keys(keys, vals, op)
        ref = reference_collapse(keys, vals, op)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("vals", [np.ones(6), np.arange(6.0)])
    def test_outputs_never_alias_inputs(self, vals):
        for keys in (np.arange(6, dtype=np.uint64), np.array([3, 1, 1, 0, 3, 2], np.uint64)):
            out_k, out_v = K.sort_collapse_keys(keys, vals, binary.plus)
            assert not np.shares_memory(out_k, keys)
            assert not np.shares_memory(out_v, vals)

    def test_trivial_sizes(self):
        empty = np.empty(0, dtype=np.uint64)
        k, v = K.sort_collapse_keys(empty, np.empty(0), binary.plus)
        assert k.size == 0 and v.size == 0
        k, v = K.sort_collapse_keys(np.array([9], np.uint64), np.array([2.0]))
        assert k.tolist() == [9] and v.tolist() == [2.0]


def reference_merge(ka, va, kb, vb, op, out_dtype):
    merged = {int(k): v for k, v in zip(ka, va.astype(out_dtype))}
    for k, v in zip(kb, vb.astype(out_dtype)):
        k = int(k)
        if k in merged:
            merged[k] = op(np.asarray(merged[k]), np.asarray(v)).astype(out_dtype)[()]
        else:
            merged[k] = v
    keys = np.array(sorted(merged), dtype=np.uint64)
    return keys, np.array([merged[int(k)] for k in keys], dtype=out_dtype)


keyed_set = st.lists(st.integers(0, 60), max_size=40, unique=True).map(sorted)


class TestMergeKeys:
    @given(
        a=keyed_set,
        b=keyed_set,
        op_name=st.sampled_from(["plus", "minus", "second", "first", "min", "times"]),
        dtypes=st.sampled_from(
            [(np.float64, np.float64), (np.int32, np.float64), (np.int64, np.int64)]
        ),
        ratio=st.sampled_from([0, K._ONE_SIDED_RATIO, 10**9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dictionary_merge(self, a, b, op_name, dtypes, ratio):
        ka = np.array(a, dtype=np.uint64)
        kb = np.array(b, dtype=np.uint64)
        va = (np.arange(ka.size) % 7 + 2).astype(dtypes[0])
        vb = (np.arange(kb.size) % 5 + 11).astype(dtypes[1])
        op = binary[op_name]
        out_dtype = np.promote_types(*dtypes)
        # ratio 0 forces the one-sided search, 10**9 the two-run merge.
        with mock.patch.object(K, "_ONE_SIDED_RATIO", ratio):
            keys, vals = K.merge_keys(ka, va, kb, vb, op)
        ref_keys, ref_vals = reference_merge(ka, va, kb, vb, op, out_dtype)
        assert np.array_equal(keys, ref_keys)
        assert vals.dtype == out_dtype and np.array_equal(vals, ref_vals)
        # Fresh outputs, whichever side was the larger one.
        for src in (ka, kb):
            assert not np.shares_memory(keys, src)
        for src in (va, vb):
            assert not np.shares_memory(vals, src)

    @given(a=keyed_set, b=keyed_set)
    @settings(max_examples=80, deadline=None)
    def test_key_only_is_sorted_set_union(self, a, b):
        ka = np.array(a, dtype=np.uint64)
        kb = np.array(b, dtype=np.uint64)
        keys, vals = K.merge_keys(ka, None, kb, None)
        assert vals is None
        assert np.array_equal(keys, np.union1d(ka, kb))

    def test_small_side_may_be_either_operand(self):
        big = np.arange(0, 1000, 2, dtype=np.uint64)
        small = np.array([3, 10, 999, 1001], dtype=np.uint64)
        vb, vs = np.full(big.size, 10.0), np.array([1.0, 2.0, 3.0, 4.0])
        k1, v1 = K.merge_keys(big, vb, small, vs, binary.minus)
        k2, v2 = K.merge_keys(small, vs, big, vb, binary.minus)
        assert np.array_equal(k1, k2)
        hit = np.searchsorted(k1, 10)
        assert v1[hit] == 8.0 and v2[hit] == -8.0  # op(a, b), never op(b, a)
        assert k1.size == big.size + 3

    def test_matches_union_merge_wrapper(self):
        a = make([0, 1, 5], [0, 1, 5], [1.0, 10.0, 3.0])
        b = make([1, 2], [1, 2], [5.0, 7.0])
        r, c, v = K.union_merge(a, b, binary.plus)
        assert np.array_equal(r, [0, 1, 2, 5])
        assert np.array_equal(v, [1.0, 15.0, 7.0, 3.0])
