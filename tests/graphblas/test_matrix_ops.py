"""Tests for Matrix algebra: element-wise ops, reductions, apply, extract and
transpose."""

import numpy as np
import pytest

from repro.graphblas import (
    DimensionMismatch,
    InvalidValue,
    Matrix,
    binary,
    monoid,
)

from ..conftest import from_array, to_array


class TestEwise:
    def test_ewise_add_union(self):
        A = Matrix.from_coo([0, 1], [0, 1], [1.0, 2.0], nrows=2, ncols=2)
        B = Matrix.from_coo([1, 0], [1, 1], [10.0, 5.0], nrows=2, ncols=2)
        C = A.ewise_add(B)
        assert C.nvals == 3
        assert C[1, 1] == 12.0
        assert C[0, 1] == 5.0

    def test_ewise_add_matches_dense(self, rng):
        a = rng.random((6, 7)) * (rng.random((6, 7)) > 0.5)
        b = rng.random((6, 7)) * (rng.random((6, 7)) > 0.5)
        C = from_array(a).ewise_add(from_array(b))
        assert np.allclose(to_array(C), a + b)

    def test_ewise_add_min_operator(self):
        A = Matrix.from_coo([0], [0], [5.0], nrows=1, ncols=1)
        B = Matrix.from_coo([0], [0], [3.0], nrows=1, ncols=1)
        assert A.ewise_add(B, binary.min)[0, 0] == 3.0

    def test_ewise_add_accepts_monoid_and_string(self):
        A = Matrix.from_coo([0], [0], [5.0], nrows=1, ncols=1)
        B = Matrix.from_coo([0], [0], [3.0], nrows=1, ncols=1)
        assert A.ewise_add(B, monoid.max)[0, 0] == 5.0
        assert A.ewise_add(B, "times")[0, 0] == 15.0

    def test_ewise_mult_intersection(self):
        A = Matrix.from_coo([0, 1], [0, 1], [2.0, 3.0], nrows=2, ncols=2)
        B = Matrix.from_coo([1, 1], [0, 1], [7.0, 4.0], nrows=2, ncols=2)
        C = A.ewise_mult(B)
        assert C.nvals == 1
        assert C[1, 1] == 12.0

    def test_ewise_mult_matches_dense(self, rng):
        a = rng.random((5, 5)) * (rng.random((5, 5)) > 0.4)
        b = rng.random((5, 5)) * (rng.random((5, 5)) > 0.4)
        C = from_array(a).ewise_mult(from_array(b))
        assert np.allclose(to_array(C), a * b)

    def test_shape_mismatch(self):
        A = Matrix("fp64", 2, 2)
        B = Matrix("fp64", 3, 3)
        with pytest.raises(DimensionMismatch):
            A.ewise_add(B)
        with pytest.raises(DimensionMismatch):
            A.ewise_mult(B)

    def test_operator_sugar(self):
        A = Matrix.from_coo([0], [0], [1.0], nrows=2, ncols=2)
        B = Matrix.from_coo([0, 1], [0, 1], [2.0, 3.0], nrows=2, ncols=2)
        assert (A + B)[0, 0] == 3.0
        assert (A * B).nvals == 1
        assert (B - A)[0, 0] == 1.0
        assert (-A)[0, 0] == -1.0
        assert (A * 4.0)[0, 0] == 4.0
        assert (3.0 * A)[0, 0] == 3.0

    def test_iadd_in_place(self):
        A = Matrix.from_coo([0], [0], [1.0], nrows=2, ncols=2)
        B = Matrix.from_coo([0], [0], [2.0], nrows=2, ncols=2)
        A += B
        assert A[0, 0] == 3.0

    def test_result_type_promotion(self):
        A = Matrix.from_coo([0], [0], [1], dtype="int32", nrows=1, ncols=1)
        B = Matrix.from_coo([0], [0], [0.5], dtype="fp64", nrows=1, ncols=1)
        assert A.ewise_add(B).dtype.name == "FP64"


class TestReductions:
    def test_reduce_scalar(self, small_matrix):
        assert small_matrix.reduce_scalar() == pytest.approx(21.0)
        assert small_matrix.reduce_scalar(monoid.max) == 6.0
        assert small_matrix.reduce_scalar("min") == 1.0

    def test_reduce_scalar_empty_is_identity(self):
        assert Matrix("fp64", 3, 3).reduce_scalar() == 0.0

    def test_reduce_rowwise(self, small_matrix):
        v = small_matrix.reduce_rowwise()
        assert v[0] == 3.0
        assert v[4] == 6.0
        assert v.size == 5

    def test_reduce_columnwise(self, small_matrix):
        v = small_matrix.reduce_columnwise()
        assert v[3] == 9.0

    def test_reduce_rowwise_matches_dense(self, rng):
        a = rng.random((7, 5)) * (rng.random((7, 5)) > 0.3)
        A = from_array(a)
        v = A.reduce_rowwise()
        expected = a.sum(axis=1)
        for i in range(7):
            got = v[i] if v[i] is not None else 0.0
            assert got == pytest.approx(expected[i])


class TestApply:
    def test_apply_unary(self, small_matrix):
        neg = small_matrix.apply("ainv")
        assert neg[0, 0] == -1.0
        assert neg.nvals == small_matrix.nvals

    def test_apply_bound_binary(self, small_matrix):
        doubled = small_matrix.apply(binary.times, right=2)
        assert doubled[0, 2] == 4.0
        offset = small_matrix.apply(binary.minus, left=10)
        assert offset[0, 0] == 9.0

    def test_apply_requires_exactly_one_bind(self, small_matrix):
        with pytest.raises(InvalidValue):
            small_matrix.apply(binary.times)
        with pytest.raises(InvalidValue):
            small_matrix.apply(binary.times, left=1, right=2)

class TestExtractTranspose:
    def test_extract_submatrix(self, small_matrix):
        sub = small_matrix.extract([0, 2], [0, 2, 3])
        assert sub.shape == (2, 3)
        assert sub[0, 0] == 1.0  # (0,0)
        assert sub[1, 2] == 4.0  # (2,3) -> position (1,2)

    def test_extract_rows_only(self, small_matrix):
        sub = small_matrix.extract(rows=[3, 4])
        assert sub.shape[0] == 2
        assert sub.nvals == 2

    def test_extract_without_reindex(self, small_matrix):
        sub = small_matrix.extract([0], [0], reindex=False)
        assert sub.shape == small_matrix.shape
        assert sub.nvals == 1
        assert sub[0, 0] == 1.0

    def test_extract_getitem_sugar(self, small_matrix):
        sub = small_matrix[[0, 2], [0, 3]]
        assert sub.nvals == 2

    def test_extract_empty_selection(self, small_matrix):
        sub = small_matrix.extract([], [])
        assert sub.nvals == 0

    def test_transpose(self, small_matrix):
        T = small_matrix.transpose()
        assert T[3, 2] == 4.0
        assert T.shape == (5, 5)
        assert small_matrix.T.isequal(T)

    def test_transpose_matches_dense(self, rng):
        a = rng.random((4, 6)) * (rng.random((4, 6)) > 0.5)
        assert np.allclose(to_array(from_array(a).transpose()), a.T)
