"""Tests for binary operators, unary operators and monoids."""

import numpy as np
import pytest

from repro.graphblas import binary, monoid, unary
from repro.graphblas.binaryop import BinaryOp
from repro.graphblas.errors import DomainMismatch
from repro.graphblas.monoid import Monoid
from repro.graphblas.types import BOOL, FP64, INT32, INT64


class TestBinaryOps:
    def test_plus(self):
        assert np.array_equal(binary.plus([1, 2], [3, 4]), [4, 6])

    def test_minus_and_rminus(self):
        assert np.array_equal(binary.minus([5, 5], [2, 3]), [3, 2])
        assert np.array_equal(binary.rminus([5, 5], [2, 3]), [-3, -2])

    def test_times(self):
        assert np.array_equal(binary.times([2, 3], [4, 5]), [8, 15])

    def test_min_max(self):
        assert np.array_equal(binary.min([1, 7], [5, 2]), [1, 2])
        assert np.array_equal(binary.max([1, 7], [5, 2]), [5, 7])

    def test_first_second(self):
        assert np.array_equal(binary.first([1, 2], [9, 9]), [1, 2])
        assert np.array_equal(binary.second([1, 2], [9, 9]), [9, 9])

    def test_pair_returns_one(self):
        assert np.array_equal(binary.pair([7, 8], [9, 10]), [1, 1])
        assert np.array_equal(binary.oneb([7.0], [3.0]), [1.0])

    def test_div_integer_truncates_and_guards_zero(self):
        out = binary.div(np.array([7, 8, 3]), np.array([2, 0, 3]))
        assert out[0] == 3
        assert out[1] == 0  # division by zero guarded
        assert out[2] == 1

    def test_div_float(self):
        out = binary.div(np.array([1.0]), np.array([4.0]))
        assert out[0] == pytest.approx(0.25)

    def test_comparisons_return_bool(self):
        assert binary.eq.bool_result
        assert np.array_equal(binary.lt([1, 5], [3, 2]), [True, False])
        assert np.array_equal(binary.ge([1, 5], [1, 6]), [True, False])

    def test_logical_ops(self):
        assert np.array_equal(binary.land([True, True], [True, False]), [True, False])
        assert np.array_equal(binary.lor([False, True], [False, False]), [False, True])
        assert np.array_equal(binary.lxor([True, True], [True, False]), [False, True])
        assert np.array_equal(binary.lxnor([True, True], [True, False]), [True, False])

    def test_bitwise_ops(self):
        assert np.array_equal(binary.band([6], [3]), [2])
        assert np.array_equal(binary.bor([6], [3]), [7])
        assert np.array_equal(binary.bxor([6], [3]), [5])

    def test_output_type_bool_ops(self):
        assert binary.eq.output_type(FP64, FP64) is BOOL
        assert binary.plus.output_type(INT32, FP64) is FP64

    def test_namespace_access(self):
        assert binary["plus"] is binary.plus
        assert "times" in binary
        assert "nonexistent" not in binary
        assert binary.plus in list(binary)

    def test_register_custom_op(self):
        op = binary.register("testavg", lambda x, y: (x + y) / 2, commutative=True)
        assert binary.testavg is op
        assert np.array_equal(op([2.0], [4.0]), [3.0])

    def test_repr(self):
        assert "plus" in repr(binary.plus)


class TestUnaryOps:
    def test_identity(self):
        assert np.array_equal(unary.identity([1, 2, 3]), [1, 2, 3])

    def test_ainv(self):
        assert np.array_equal(unary.ainv([1, -2]), [-1, 2])

    def test_ainv_unsigned_wraps(self):
        out = unary.ainv(np.array([1], dtype=np.uint8))
        assert out.dtype == np.uint8
        assert out[0] == 255

    def test_minv(self):
        assert unary.minv(np.array([4.0]))[0] == pytest.approx(0.25)
        assert unary.minv(np.array([0]))[0] == 0  # guarded integer inverse

    def test_abs(self):
        assert np.array_equal(unary.abs([-1.5, 2.0]), [1.5, 2.0])

    def test_lnot(self):
        assert np.array_equal(unary.lnot([0, 1, 2]), [True, False, False])

    def test_one(self):
        assert np.array_equal(unary.one([5.0, -3.0]), [1.0, 1.0])

    def test_transcendental_promote_to_float(self):
        assert unary.sqrt.output_type(INT64) is FP64
        assert unary.sqrt(np.array([4]))[0] == pytest.approx(2.0)
        assert unary.exp(np.array([0]))[0] == pytest.approx(1.0)
        assert unary.log(np.array([np.e]))[0] == pytest.approx(1.0)

    def test_rounding(self):
        assert np.array_equal(unary.floor([1.7]), [1.0])
        assert np.array_equal(unary.ceil([1.2]), [2.0])

    def test_signum(self):
        assert np.array_equal(unary.signum([-3.0, 0.0, 9.0]), [-1.0, 0.0, 1.0])

    def test_namespace_and_register(self):
        assert unary["abs"] is unary.abs
        op = unary.register("testdouble", lambda x: x * 2)
        assert np.array_equal(op([3]), [6])


class TestMonoids:
    def test_plus_reduce(self):
        assert monoid.plus.reduce(np.array([1.0, 2.0, 3.0])) == pytest.approx(6.0)

    def test_reduce_empty_returns_identity(self):
        assert monoid.plus.reduce(np.array([], dtype=np.float64)) == 0.0
        assert monoid.times.reduce(np.array([], dtype=np.int64)) == 1
        assert monoid.max.reduce(np.array([], dtype=np.float64)) == -np.inf

    def test_min_max_identities_by_dtype(self):
        assert monoid.min.identity_for(FP64) == np.inf
        assert monoid.min.identity_for(INT32) == np.iinfo(np.int32).max
        assert monoid.max.identity_for(INT32) == np.iinfo(np.int32).min

    def test_terminal_values(self):
        assert monoid.times.terminal_for(INT64) == 0
        assert monoid.lor.terminal_for(BOOL) == True  # noqa: E712
        assert monoid.plus.terminal_for(FP64) is None

    def test_reduce_groups_ufunc(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        starts = np.array([0, 2])
        out = monoid.plus.reduce_groups(vals, starts)
        assert np.array_equal(out, [3.0, 12.0])

    def test_reduce_groups_min(self):
        vals = np.array([5.0, 1.0, 7.0, 2.0])
        out = monoid.min.reduce_groups(vals, np.array([0, 2]))
        assert np.array_equal(out, [1.0, 2.0])

    def test_reduce_groups_empty(self):
        out = monoid.plus.reduce_groups(np.array([]), np.array([], dtype=np.intp))
        assert out.size == 0

    def test_non_associative_op_rejected(self):
        with pytest.raises(DomainMismatch):
            Monoid("bad", binary.minus, 0)

    def test_callable(self):
        assert monoid.plus(2, 3) == 5

    def test_namespace_and_register(self):
        assert monoid["max"] is monoid.max
        m = monoid.register("testplus", binary.plus, 0)
        assert m.reduce(np.array([1, 2, 3])) == 6

    def test_lor_land_reduce(self):
        assert monoid.lor.reduce(np.array([False, True, False])) == True  # noqa: E712
        assert monoid.land.reduce(np.array([True, True, False])) == False  # noqa: E712
