"""Property-based tests (hypothesis) for the GraphBLAS substrate invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphblas import Matrix, binary, monoid

from ..conftest import to_array

# Strategy: small coordinate triples over a modest dense-checkable space.
coords = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=-50, max_value=50),
    ),
    min_size=0,
    max_size=40,
)


def to_dense(triples, n=16):
    out = np.zeros((n, n))
    for r, c, v in triples:
        out[r, c] += v
    return out


def from_triples(triples, n=16):
    if not triples:
        return Matrix("fp64", n, n)
    r, c, v = zip(*triples)
    return Matrix.from_coo(list(r), list(c), [float(x) for x in v], nrows=n, ncols=n)


def matrix_dense(A):
    return to_array(A).astype(float)


@settings(max_examples=60, deadline=None)
@given(coords)
def test_from_coo_matches_dense_accumulation(triples):
    """Building from duplicated triples equals dense += accumulation."""
    A = from_triples(triples)
    assert np.allclose(matrix_dense(A), to_dense(triples))


@settings(max_examples=60, deadline=None)
@given(coords, coords)
def test_ewise_add_commutative_and_matches_dense(t1, t2):
    A, B = from_triples(t1), from_triples(t2)
    C1 = A.ewise_add(B)
    C2 = B.ewise_add(A)
    assert C1.isclose(C2, abs_tol=1e-9)
    assert np.allclose(matrix_dense(C1), to_dense(t1) + to_dense(t2))


@settings(max_examples=60, deadline=None)
@given(coords, coords)
def test_ewise_mult_matches_dense(t1, t2):
    A, B = from_triples(t1), from_triples(t2)
    C = A.ewise_mult(B)
    da, db = to_dense(t1), to_dense(t2)
    # eWiseMult only keeps coordinates stored in both; with +=-accumulation a
    # coordinate can cancel to 0 yet remain stored, so compare on the pattern.
    expected = np.where((da != 0) | (db != 0), da * db, 0.0)
    got = matrix_dense(C)
    pattern_rows, pattern_cols, _ = A.ewise_mult(B).extract_tuples()
    for r, c in zip(pattern_rows, pattern_cols):
        assert np.isclose(got[int(r), int(c)], da[int(r), int(c)] * db[int(r), int(c)])


@settings(max_examples=40, deadline=None)
@given(coords, coords, coords)
def test_ewise_add_associative(t1, t2, t3):
    A, B, C = from_triples(t1), from_triples(t2), from_triples(t3)
    left = A.ewise_add(B).ewise_add(C)
    right = A.ewise_add(B.ewise_add(C))
    assert left.isclose(right, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(coords)
def test_transpose_involution(triples):
    A = from_triples(triples)
    assert A.transpose().transpose().isequal(A)


@settings(max_examples=60, deadline=None)
@given(coords)
def test_reduce_scalar_matches_sum(triples):
    A = from_triples(triples)
    assert np.isclose(float(A.reduce_scalar()), to_dense(triples).sum())


@settings(max_examples=60, deadline=None)
@given(coords)
def test_rowwise_reduce_matches_dense(triples):
    A = from_triples(triples)
    v = A.reduce_rowwise()
    dense_sums = to_dense(triples).sum(axis=1)
    got = np.zeros(16)
    idx, vals = v.to_coo()
    got[idx.astype(np.int64)] = vals
    assert np.allclose(got, dense_sums)


@settings(max_examples=60, deadline=None)
@given(coords)
def test_extract_tuples_sorted_unique(triples):
    A = from_triples(triples)
    r, c, _ = A.extract_tuples()
    order = np.lexsort((c, r))
    assert np.array_equal(order, np.arange(r.size))
    if r.size > 1:
        dup = (r[1:] == r[:-1]) & (c[1:] == c[:-1])
        assert not dup.any()


@settings(max_examples=40, deadline=None)
@given(coords, st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_set_get_roundtrip(triples, i, j):
    A = from_triples(triples)
    A.setElement(i, j, 123.0)
    assert A[i, j] == 123.0


@settings(max_examples=40, deadline=None)
@given(coords)
def test_dup_independent(triples):
    A = from_triples(triples)
    B = A.dup()
    B.setElement(0, 0, 999.0)
    assert A[0, 0] != 999.0 or to_dense(triples)[0, 0] == 999.0


@settings(max_examples=40, deadline=None)
@given(coords)
def test_apply_one_then_reduce_counts_nvals(triples):
    A = from_triples(triples)
    ones = A.apply("one")
    assert float(ones.reduce_scalar()) == A.nvals
