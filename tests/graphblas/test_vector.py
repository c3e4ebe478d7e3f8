"""Tests for the sparse Vector container."""

import numpy as np
import pytest

from repro.graphblas import (
    DimensionMismatch,
    IndexOutOfBound,
    InvalidValue,
    Vector,
    binary,
    monoid,
)


class TestConstruction:
    def test_empty(self):
        v = Vector("fp64", 100)
        assert v.size == 100
        assert v.nvals == 0

    def test_default_size_hypersparse(self):
        assert Vector("int64").size == 2**64

    def test_invalid_size(self):
        with pytest.raises(InvalidValue):
            Vector("fp64", 0)

    def test_from_coo(self):
        v = Vector.from_coo([3, 1], [1.0, 2.0], size=5)
        assert v.nvals == 2
        assert v[1] == 2.0

    def test_from_coo_duplicates_sum(self):
        v = Vector.from_coo([1, 1], [1.0, 2.0], size=5)
        assert v[1] == 3.0

    def test_from_coo_scalar_broadcast(self):
        v = Vector.from_coo([0, 1, 2], 5, size=4)
        assert v[2] == 5

    def test_dup(self):
        v = Vector.from_coo([1], [1.0], size=4)
        w = v.dup()
        w.setElement(2, 2.0)
        assert v.nvals == 1 and w.nvals == 2

    def test_huge_indices(self):
        v = Vector.from_coo([2**63, 5], [1.0, 2.0], size=2**64)
        assert v[2**63] == 1.0


class TestElements:
    def test_set_get(self):
        v = Vector("fp64", 10)
        v.setElement(3, 1.5)
        assert v[3] == 1.5
        v[4] = 2.5
        assert v.extractElement(4) == 2.5
        assert v.get(5, default=0.0) == 0.0

    def test_setelement_replaces(self):
        v = Vector("fp64", 10)
        v.setElement(1, 1.0)
        v.setElement(1, 9.0)
        assert v[1] == 9.0 and v.nvals == 1

    def test_out_of_bounds(self):
        v = Vector("fp64", 4)
        with pytest.raises(IndexOutOfBound):
            v.build([4], [1.0])

    def test_build_length_mismatch(self):
        v = Vector("fp64", 4)
        with pytest.raises(DimensionMismatch):
            v.build([0, 1], [1.0])

    def test_contains_and_iter(self):
        v = Vector.from_coo([2, 0], [1.0, 3.0], size=4)
        assert 2 in v and 1 not in v
        assert list(v) == [(0, 3.0), (2, 1.0)]

    def test_clear_and_resize(self):
        v = Vector.from_coo([1, 3], [1.0, 2.0], size=5)
        v.resize(2)
        assert v.nvals == 1
        v.clear()
        assert v.nvals == 0
        assert bool(v) is False

    def test_to_coo_copies(self):
        v = Vector.from_coo([1], [1.0], size=3)
        idx, vals = v.to_coo()
        idx[0] = 2
        assert v[1] == 1.0


class TestAlgebra:
    def test_ewise_add(self):
        a = Vector.from_coo([0, 1], [1.0, 2.0], size=3)
        b = Vector.from_coo([1, 2], [10.0, 20.0], size=3)
        c = a.ewise_add(b)
        assert c[0] == 1.0 and c[1] == 12.0 and c[2] == 20.0
        assert (a + b).isequal(c)

    def test_ewise_mult(self):
        a = Vector.from_coo([0, 1], [2.0, 3.0], size=3)
        b = Vector.from_coo([1, 2], [4.0, 5.0], size=3)
        c = a.ewise_mult(b)
        assert c.nvals == 1 and c[1] == 12.0
        assert (a * b).isequal(c)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Vector("fp64", 3).ewise_add(Vector("fp64", 4))
        with pytest.raises(DimensionMismatch):
            Vector("fp64", 3).ewise_mult(Vector("fp64", 4))

    def test_apply(self):
        v = Vector.from_coo([0, 1], [1.0, -2.0], size=3)
        assert v.apply("abs")[1] == 2.0
        assert v.apply(binary.times, right=3)[0] == 3.0
        assert (v * 2)[1] == -4.0
        with pytest.raises(InvalidValue):
            v.apply(binary.times)

    def test_reduce(self):
        v = Vector.from_coo([0, 5], [2.0, 3.0], size=10)
        assert v.reduce() == 5.0
        assert v.reduce(monoid.max) == 3.0
        assert v.reduce("min") == 2.0
        assert Vector("fp64", 3).reduce() == 0.0

    def test_isequal_isclose(self):
        a = Vector.from_coo([1], [1.0], size=3)
        b = Vector.from_coo([1], [1.0], size=3)
        c = Vector.from_coo([1], [1.0 + 1e-12], size=3)
        assert a.isequal(b)
        assert not a.isequal(Vector("fp64", 4))
        assert a.isclose(c)
        assert not a.isclose(Vector.from_coo([2], [1.0], size=3))

    def test_memory_usage(self):
        v = Vector.from_coo(np.arange(100), np.ones(100), size=1000)
        assert v.memory_usage >= 100 * 16

    def test_repr(self):
        assert "nvals=1" in repr(Vector.from_coo([0], [1.0], size=2))
