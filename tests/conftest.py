"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphblas import Matrix, Vector


@pytest.fixture
def rng():
    """A deterministic NumPy random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_matrix():
    """A small 5x5 matrix with a known pattern."""
    return Matrix.from_coo(
        [0, 0, 1, 2, 3, 4],
        [0, 2, 1, 3, 3, 4],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        nrows=5,
        ncols=5,
    )


@pytest.fixture
def huge_matrix():
    """A hypersparse matrix over the full 2^64 x 2^64 index space."""
    return Matrix.from_coo(
        [2**63, 5, 2**40],
        [7, 2**40, 2**63 + 1],
        [10.0, 20.0, 30.0],
        nrows=2**64,
        ncols=2**64,
    )


@pytest.fixture
def small_vector():
    """A small sparse vector."""
    return Vector.from_coo([1, 3, 4], [1.0, 2.0, 3.0], size=6)


def random_coo(rng, n, nrows=1000, ncols=1000):
    """Random coordinate triples (may contain duplicates)."""
    rows = rng.integers(0, nrows, size=n, dtype=np.uint64)
    cols = rng.integers(0, ncols, size=n, dtype=np.uint64)
    vals = rng.normal(size=n)
    return rows, cols, vals


def to_array(A):
    """Dense NumPy oracle of a small Matrix, built from its stored tuples."""
    rows, cols, vals = A.extract_tuples()
    out = np.zeros(A.shape, dtype=A.dtype.np_type)
    out[rows.astype(np.int64), cols.astype(np.int64)] = vals
    return out


def from_array(array):
    """The Matrix holding a dense 2-D array's nonzeros, built with ``from_coo``."""
    array = np.asarray(array)
    rows, cols = np.nonzero(array)
    return Matrix.from_coo(
        rows, cols, array[rows, cols], nrows=array.shape[0], ncols=array.shape[1]
    )
