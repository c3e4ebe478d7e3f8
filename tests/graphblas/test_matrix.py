"""Tests for Matrix construction, element access, and bookkeeping."""

import numpy as np
import pytest

from repro.graphblas import (
    DimensionMismatch,
    IndexOutOfBound,
    InvalidValue,
    Matrix,
    binary,
)
from repro.graphblas.types import FP64, INT64


class TestConstruction:
    def test_empty_matrix(self):
        A = Matrix("fp64", 10, 20)
        assert A.shape == (10, 20)
        assert A.nvals == 0
        assert A.dtype is FP64

    def test_default_dimensions_are_hypersparse(self):
        A = Matrix("int64")
        assert A.nrows == 2**64
        assert A.ncols == 2**64

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidValue):
            Matrix("fp64", 0, 5)
        with pytest.raises(InvalidValue):
            Matrix("fp64", 5, 2**64 + 1)

    def test_from_coo_basic(self):
        A = Matrix.from_coo([0, 1], [1, 2], [1.5, 2.5], nrows=3, ncols=3)
        assert A.nvals == 2
        assert A[0, 1] == 1.5

    def test_from_coo_scalar_value_broadcast(self):
        A = Matrix.from_coo([0, 1, 2], [0, 1, 2], 7, nrows=3, ncols=3)
        assert A[2, 2] == 7

    def test_from_coo_duplicates_sum_by_default(self):
        A = Matrix.from_coo([0, 0], [1, 1], [2.0, 3.0], nrows=2, ncols=2)
        assert A.nvals == 1
        assert A[0, 1] == 5.0

    def test_from_coo_dup_op_second(self):
        A = Matrix.from_coo([0, 0], [1, 1], [2.0, 3.0], nrows=2, ncols=2, dup_op=binary.second)
        assert A[0, 1] == 3.0

    def test_from_coo_dtype_cast(self):
        A = Matrix.from_coo([0], [0], [2.7], dtype="int64", nrows=1, ncols=1)
        assert A.dtype is INT64
        assert A[0, 0] == 2

    def test_dup_is_deep(self):
        A = Matrix.from_coo([0], [0], [1.0], nrows=2, ncols=2)
        B = A.dup()
        B.setElement(1, 1, 5.0)
        assert A.nvals == 1
        assert B.nvals == 2

    def test_dup_with_cast(self):
        A = Matrix.from_coo([0], [0], [1.9], nrows=2, ncols=2)
        B = A.dup(dtype="int32")
        assert B[0, 0] == 1

    def test_huge_dimensions(self, huge_matrix):
        assert huge_matrix.nvals == 3
        assert huge_matrix[2**63, 7] == 10.0
        assert huge_matrix.nrows == 2**64


class TestElementAccess:
    def test_set_and_extract(self):
        A = Matrix("fp64", 10, 10)
        A.setElement(3, 4, 1.5)
        assert A.extractElement(3, 4) == 1.5
        assert A.get(9, 9) is None
        assert A.get(9, 9, default=0.0) == 0.0

    def test_setitem_getitem(self):
        A = Matrix("fp64", 10, 10)
        A[2, 3] = 9.0
        assert A[2, 3] == 9.0

    def test_setelement_replaces(self):
        A = Matrix("fp64", 10, 10)
        A.setElement(1, 1, 1.0)
        A.setElement(1, 1, 2.0)
        assert A[1, 1] == 2.0
        assert A.nvals == 1

    def test_pending_buffer_is_lazy(self):
        A = Matrix("fp64", 10, 10)
        A.setElement(0, 0, 1.0)
        assert A.has_pending
        assert A.nvals_upper_bound == 1
        _ = A.nvals  # forces the merge
        assert not A.has_pending

    def test_pending_merges_with_existing(self):
        A = Matrix.from_coo([0], [0], [1.0], nrows=4, ncols=4)
        A.setElement(0, 0, 5.0)  # replace semantics for setElement
        assert A[0, 0] == 5.0

    def test_wait_chainable(self):
        A = Matrix("fp64", 4, 4)
        A.setElement(0, 1, 2.0)
        assert A.wait() is A

    def test_out_of_bounds_rejected(self):
        A = Matrix("fp64", 4, 4)
        with pytest.raises(IndexOutOfBound):
            A.setElement(4, 0, 1.0)
        with pytest.raises(IndexOutOfBound):
            A.build([0], [4], [1.0])

    def test_contains(self):
        A = Matrix.from_coo([0], [1], [1.0], nrows=2, ncols=2)
        assert (0, 1) in A
        assert (1, 0) not in A

    def test_iteration_sorted(self, small_matrix):
        triples = list(small_matrix)
        assert triples[0] == (0, 0, 1.0)
        assert len(triples) == 6
        assert triples == sorted(triples)

    def test_bool(self):
        assert not Matrix("fp64", 2, 2)
        assert Matrix.from_coo([0], [0], [1.0], nrows=2, ncols=2)


class TestBuildAndClear:
    def test_build_merges_batches(self):
        A = Matrix("fp64", 100, 100)
        A.build([1, 2], [1, 2], [1.0, 1.0])
        A.build([1, 3], [1, 3], [2.0, 3.0])
        assert A.nvals == 3
        assert A[1, 1] == 3.0

    def test_build_clear_replaces(self):
        A = Matrix.from_coo([0], [0], [1.0], nrows=4, ncols=4)
        A.build([1], [1], [9.0], clear=True)
        assert A.nvals == 1
        assert A[0, 0] is None

    def test_build_length_mismatch(self):
        A = Matrix("fp64", 4, 4)
        with pytest.raises(DimensionMismatch):
            A.build([0, 1], [0], [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            A.build([0, 1], [0, 1], [1.0])

    def test_build_scalar_value(self):
        A = Matrix("int64", 10, 10)
        A.build([1, 2, 3], [1, 2, 3], 1)
        assert A.reduce_scalar() == 3

    def test_clear_preserves_shape_and_dtype(self):
        A = Matrix.from_coo([0], [0], [1.0], nrows=7, ncols=9)
        A.clear()
        assert A.nvals == 0
        assert A.shape == (7, 9)
        assert A.dtype is FP64

    def test_resize_drops_out_of_range(self):
        A = Matrix.from_coo([0, 5], [0, 5], [1.0, 2.0], nrows=10, ncols=10)
        A.resize(3, 3)
        assert A.nvals == 1
        assert A.shape == (3, 3)

    def test_resize_grows(self):
        A = Matrix.from_coo([0], [0], [1.0], nrows=2, ncols=2)
        A.resize(100, 100)
        assert A.shape == (100, 100)
        assert A.nvals == 1

    def test_update_accumulates(self):
        A = Matrix.from_coo([0, 1], [0, 1], [1.0, 2.0], nrows=3, ncols=3)
        B = Matrix.from_coo([1, 2], [1, 2], [10.0, 20.0], nrows=3, ncols=3)
        A.update(B)
        assert A[1, 1] == 12.0
        assert A.nvals == 3

    def test_update_shape_mismatch(self):
        A = Matrix("fp64", 3, 3)
        B = Matrix("fp64", 4, 4)
        with pytest.raises(DimensionMismatch):
            A.update(B)

    def test_extract_tuples_returns_copies(self, small_matrix):
        r, c, v = small_matrix.extract_tuples()
        r[0] = 99
        assert small_matrix[0, 0] == 1.0

    def test_memory_usage_grows(self):
        A = Matrix("fp64", 100, 100)
        before = A.memory_usage
        A.build(np.arange(50), np.arange(50), np.ones(50))
        assert A.memory_usage > before


class TestComparisons:
    def test_isequal(self):
        A = Matrix.from_coo([0], [1], [1.0], nrows=2, ncols=2)
        B = Matrix.from_coo([0], [1], [1.0], nrows=2, ncols=2)
        C = Matrix.from_coo([0], [1], [2.0], nrows=2, ncols=2)
        assert A.isequal(B)
        assert not A.isequal(C)
        assert not A.isequal(Matrix("fp64", 3, 3))
        assert not A.isequal("not a matrix")

    def test_isequal_dtype_check(self):
        A = Matrix.from_coo([0], [1], [1], dtype="int64", nrows=2, ncols=2)
        B = Matrix.from_coo([0], [1], [1], dtype="fp64", nrows=2, ncols=2)
        assert A.isequal(B)
        assert not A.isequal(B, check_dtype=True)

    def test_isclose(self):
        A = Matrix.from_coo([0], [1], [1.0], nrows=2, ncols=2)
        B = Matrix.from_coo([0], [1], [1.0 + 1e-12], nrows=2, ncols=2)
        assert A.isclose(B)
        C = Matrix.from_coo([0], [1], [1.1], nrows=2, ncols=2)
        assert not A.isclose(C)

    def test_repr_mentions_shape(self, small_matrix):
        assert "5x5" in repr(small_matrix)
