"""Tests for D4M associative arrays."""

import numpy as np
import pytest

from repro.d4m import Assoc
from repro.graphblas import Matrix


class TestConstruction:
    def test_basic_triples(self):
        A = Assoc(["r1", "r2"], ["c1", "c2"], [1.0, 2.0])
        assert A.nnz == 2
        assert A.shape == (2, 2)
        assert A["r1", "c1"] == 1.0

    def test_duplicates_sum(self):
        A = Assoc(["r", "r"], ["c", "c"], [1.0, 2.0])
        assert A.nnz == 1
        assert A.getval("r", "c") == 3.0

    def test_scalar_value_broadcast(self):
        A = Assoc(["a", "b"], ["x", "y"], 1.0)
        assert A.getval("b", "y") == 1.0

    def test_numeric_keys(self):
        A = Assoc([10, 2], [1, 1], [1.0, 2.0])
        assert A.getval(10, 1) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Assoc(["a"], ["x", "y"], [1.0])
        with pytest.raises(ValueError):
            Assoc(["a", "b"], ["x", "y"], [1.0])

    def test_empty(self):
        A = Assoc.empty()
        assert A.nnz == 0
        assert not A

    def test_from_matrix(self):
        M = Matrix.from_coo([0, 1], [0, 1], [1.0, 2.0], nrows=2, ncols=2)
        A = Assoc.from_matrix(M, ["a", "b"], ["x", "y"])
        assert A.getval("b", "y") == 2.0
        with pytest.raises(ValueError):
            Assoc.from_matrix(M, ["a"], ["x", "y"])

    def test_single_key_access_missing(self):
        A = Assoc(["a"], ["x"], [1.0])
        assert A.getval("q", "x") is None
        assert A.getval("a", "q") is None
        assert ("a", "x") in A and ("q", "x") not in A


class TestFindAndIteration:
    def test_find_returns_keys(self):
        A = Assoc(["r2", "r1"], ["c2", "c1"], [2.0, 1.0])
        rk, ck, v = A.find()
        assert rk.tolist() == ["r1", "r2"]
        assert ck.tolist() == ["c1", "c2"]
        assert v.tolist() == [1.0, 2.0]

    def test_iteration(self):
        A = Assoc(["a"], ["x"], [3.0])
        assert list(A) == [("a", "x", 3.0)]

    def test_display(self):
        A = Assoc(["a", "b"], ["x", "y"], [1.0, 2.0])
        text = A.display(max_triples=1)
        assert "2 triples" in text and "more" in text


class TestAlgebra:
    def test_addition_union_of_keys(self):
        A = Assoc(["a", "b"], ["x", "y"], [1.0, 2.0])
        B = Assoc(["b", "c"], ["y", "z"], [10.0, 3.0])
        C = A + B
        assert C.nnz == 3
        assert C.getval("b", "y") == 12.0
        assert C.getval("a", "x") == 1.0
        assert C.getval("c", "z") == 3.0
        assert sorted(C.row) == ["a", "b", "c"]

    def test_addition_identity_like(self):
        A = Assoc(["a"], ["x"], [1.0])
        B = A + Assoc.empty()
        assert B.getval("a", "x") == 1.0

    def test_and_or(self):
        A = Assoc(["a", "b"], ["x", "y"], [5.0, 2.0])
        B = Assoc(["a", "c"], ["x", "z"], [3.0, 9.0])
        assert (A & B).getval("a", "x") == 3.0
        assert (A & B).nnz == 1
        assert (A | B).getval("a", "x") == 5.0
        assert (A | B).nnz == 3

    def test_multiply_elementwise(self):
        A = Assoc(["a"], ["x"], [4.0])
        B = Assoc(["a"], ["x"], [2.5])
        assert A.multiply(B).getval("a", "x") == 10.0

    def test_equality(self):
        A = Assoc(["a"], ["x"], [1.0])
        B = Assoc(["a"], ["x"], [1.0])
        C = Assoc(["a"], ["x"], [2.0])
        assert A == B
        assert A != C

    def test_transpose(self):
        A = Assoc(["a"], ["x"], [1.0])
        assert A.T.getval("x", "a") == 1.0
        assert A.transpose().transpose() == A

    def test_sums(self):
        A = Assoc(["a", "a", "b"], ["x", "y", "x"], [1.0, 2.0, 3.0])
        col_sums = A.sum_rows()
        assert col_sums.getval("sum", "x") == 4.0
        row_sums = A.sum_cols()
        assert row_sums.getval("a", "sum") == 3.0

    def test_logical(self):
        A = Assoc(["a", "b"], ["x", "y"], [5.0, 9.0])
        L = A.logical()
        assert L.getval("a", "x") == 1.0
        assert L.getval("b", "y") == 1.0

    def test_memory_usage(self):
        assert Assoc(["a"], ["x"], [1.0]).memory_usage > 0


class TestSubscripting:
    @pytest.fixture
    def traffic(self):
        return Assoc(
            ["10.0.0.1", "10.0.0.2", "192.168.1.1", "10.0.0.1"],
            ["8.8.8.8", "8.8.4.4", "8.8.8.8", "1.1.1.1"],
            [5.0, 3.0, 2.0, 7.0],
        )

    def test_subsref_by_key_list(self, traffic):
        sub = traffic.subsref(["10.0.0.1"], None)
        assert sub.nnz == 2
        assert sub.getval("10.0.0.1", "1.1.1.1") == 7.0

    def test_subsref_prefix_pattern(self, traffic):
        sub = traffic["10.0.0.*", :]
        assert sub.nnz == 3
        assert "192.168.1.1" not in sub.row

    def test_subsref_range(self, traffic):
        sub = traffic.subsref(("10.0.0.1", "10.0.0.2"), None)
        assert sub.nnz == 3

    def test_subsref_columns(self, traffic):
        sub = traffic.subsref(None, ["8.8.8.8"])
        assert sub.nnz == 2

    def test_subsref_no_match(self, traffic):
        sub = traffic.subsref(["7.7.7.7"], None)
        assert sub.nnz == 0

    def test_getitem_slice_everything(self, traffic):
        sub = traffic[:, :]
        assert sub.nnz == traffic.nnz
