"""Every built-in operator through every kept GraphBLAS operation.

Each case runs one operator through ``ewise_add``, ``ewise_mult``,
``update``, ``apply`` or a reduction and checks the result against a
dictionary oracle computed entry by entry with NumPy. The coordinate pools
pick the merge kernel: small coordinates pack into 64-bit keys, while a pool
spanning the full ``2^64`` index space in both rows and columns cannot pack
and takes the lexsort fallback. The vector sweep pairs a large operand with
a small one, which takes the one-sided binary-search merge.
"""

from functools import reduce

import numpy as np
import pytest

from repro.graphblas import Matrix, Vector, binary, lookup_dtype, monoid, unary

# name -> (NumPy reference of f(x, y), operand dtype)
BINARY_ORACLES = {
    "plus": (np.add, "fp64"),
    "minus": (np.subtract, "fp64"),
    "rminus": (lambda x, y: np.subtract(y, x), "fp64"),
    "times": (np.multiply, "fp64"),
    "div": (np.true_divide, "fp64"),
    "rdiv": (lambda x, y: np.true_divide(y, x), "fp64"),
    "min": (np.minimum, "fp64"),
    "max": (np.maximum, "fp64"),
    "first": (lambda x, y: x, "fp64"),
    "second": (lambda x, y: y, "fp64"),
    "pair": (lambda x, y: np.ones_like(x), "fp64"),
    "oneb": (lambda x, y: np.ones_like(x), "fp64"),
    "any": (lambda x, y: x, "fp64"),
    "pow": (np.power, "fp64"),
    "hypot": (np.hypot, "fp64"),
    "fmod": (np.fmod, "fp64"),
    "eq": (np.equal, "fp64"),
    "ne": (np.not_equal, "fp64"),
    "gt": (np.greater, "fp64"),
    "lt": (np.less, "fp64"),
    "ge": (np.greater_equal, "fp64"),
    "le": (np.less_equal, "fp64"),
    "land": (np.logical_and, "bool"),
    "lor": (np.logical_or, "bool"),
    "lxor": (np.logical_xor, "bool"),
    "lxnor": (lambda x, y: np.logical_not(np.logical_xor(x, y)), "bool"),
    "band": (np.bitwise_and, "int64"),
    "bor": (np.bitwise_or, "int64"),
    "bxor": (np.bitwise_xor, "int64"),
}

# Accumulators for ``update``: the numeric operators whose result keeps the
# operand type.
ACCUM_OPS = [
    name
    for name, (_, dtype) in BINARY_ORACLES.items()
    if dtype == "fp64" and not binary[name].bool_result
]

# name -> (NumPy reference of f(x), operand dtype)
UNARY_ORACLES = {
    "identity": (lambda x: x, "fp64"),
    "ainv": (np.negative, "fp64"),
    "minv": (lambda x: 1.0 / x, "fp64"),
    "abs": (np.abs, "fp64"),
    "lnot": (np.logical_not, "fp64"),
    "one": (np.ones_like, "fp64"),
    "sqrt": (np.sqrt, "fp64"),
    "log": (np.log, "fp64"),
    "log2": (np.log2, "fp64"),
    "log10": (np.log10, "fp64"),
    "log1p": (np.log1p, "fp64"),
    "exp": (np.exp, "fp64"),
    "sin": (np.sin, "fp64"),
    "cos": (np.cos, "fp64"),
    "tanh": (np.tanh, "fp64"),
    "floor": (np.floor, "fp64"),
    "ceil": (np.ceil, "fp64"),
    "round": (np.round, "fp64"),
    "signum": (np.sign, "fp64"),
    "bnot": (np.invert, "int64"),
}

# name -> (NumPy reference of the monoid's operator, operand dtype)
MONOID_ORACLES = {
    "plus": (np.add, "fp64"),
    "times": (np.multiply, "fp64"),
    "min": (np.minimum, "fp64"),
    "max": (np.maximum, "fp64"),
    "lor": (np.logical_or, "bool"),
    "land": (np.logical_and, "bool"),
    "lxor": (np.logical_xor, "bool"),
}

# Coordinate pools: "packed" fits a 64-bit key, "full64" needs 64 bits for
# rows and for columns, so no split can pack it.
POOLS = {
    "packed": [0, 1, 2, 3, 5, 8, 13],
    "full64": [0, 3, 2**40, 2**63, 2**64 - 1],
}


def _values(rng, n, dtype):
    """``n`` values of ``dtype``: nonzero, exactly representable, distinct enough."""
    if dtype == "bool":
        return rng.random(n) < 0.5
    if dtype == "int64":
        return rng.integers(1, 64, size=n, dtype=np.int64)
    return rng.integers(1, 10, size=n) + 0.25 * rng.integers(0, 4, size=n)


def _matrix_operands(rng, pool, dtype, n=14):
    """Two matrices over ``pool x pool`` that share some coordinates and not others."""
    cells = [(r, c) for r in pool for c in pool]
    picks = []
    for _ in range(2):
        chosen = rng.choice(len(cells), size=n, replace=False)
        picks.append([cells[i] for i in chosen])
    a_keys, b_keys = set(picks[0]), set(picks[1])
    assert a_keys & b_keys and a_keys - b_keys and b_keys - a_keys
    out = []
    for keys in picks:
        rows = [r for r, _ in keys]
        cols = [c for _, c in keys]
        out.append(Matrix.from_coo(rows, cols, _values(rng, n, dtype), dtype=dtype))
    return out


def _as_dict(obj):
    """``{coordinate: value}`` of a Matrix (row, col keys) or Vector (index keys)."""
    if isinstance(obj, Matrix):
        return {(r, c): v for r, c, v in obj}
    return dict(obj)


def _scalar(f, np_type, *args):
    """``f`` applied to one-element arrays of ``np_type``, as a NumPy scalar."""
    return np.asarray(f(*(np.array([x], dtype=np_type) for x in args)))[0]


def _union_oracle(a, b, f, in_type, out_type):
    out = {}
    for k in a.keys() | b.keys():
        if k in a and k in b:
            out[k] = _scalar(f, in_type, a[k], b[k])
        else:
            out[k] = a[k] if k in a else b[k]
    return {k: out_type(v) for k, v in out.items()}


def _intersect_oracle(a, b, f, in_type, out_type):
    return {
        k: out_type(_scalar(f, in_type, a[k], b[k])) for k in a.keys() & b.keys()
    }


def _assert_matches(result, expected):
    got = _as_dict(result)
    assert got.keys() == expected.keys()
    keys = sorted(expected)
    np.testing.assert_array_equal(
        np.array([got[k] for k in keys]), np.array([expected[k] for k in keys])
    )


def _scalar_type(datatype):
    """The NumPy scalar type (callable as a cast) of a GraphBLAS type."""
    return np.dtype(datatype.np_type).type


def _op_dtypes(name, dtype):
    in_type = lookup_dtype(dtype)
    out_type = binary[name].output_type(in_type, in_type)
    return _scalar_type(in_type), _scalar_type(out_type)


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("name", sorted(BINARY_ORACLES))
def test_matrix_ewise_add(name, pool, rng):
    f, dtype = BINARY_ORACLES[name]
    A, B = _matrix_operands(rng, POOLS[pool], dtype)
    in_type, out_type = _op_dtypes(name, dtype)
    C = A.ewise_add(B, name)
    assert C.dtype.np_type == out_type
    _assert_matches(C, _union_oracle(_as_dict(A), _as_dict(B), f, in_type, out_type))


@pytest.mark.parametrize("pool", sorted(POOLS))
@pytest.mark.parametrize("name", sorted(BINARY_ORACLES))
def test_matrix_ewise_mult(name, pool, rng):
    f, dtype = BINARY_ORACLES[name]
    A, B = _matrix_operands(rng, POOLS[pool], dtype)
    in_type, out_type = _op_dtypes(name, dtype)
    C = A.ewise_mult(B, name)
    assert C.dtype.np_type == out_type
    _assert_matches(
        C, _intersect_oracle(_as_dict(A), _as_dict(B), f, in_type, out_type)
    )


@pytest.mark.parametrize("name", sorted(BINARY_ORACLES))
def test_vector_ewise_add_large_with_small(name, rng):
    f, dtype = BINARY_ORACLES[name]
    pool = np.unique(rng.integers(0, 2**64 - 1, size=300, dtype=np.uint64))
    in_large = rng.permutation(pool.size)[:200]
    outside = np.setdiff1d(np.arange(pool.size), in_large)
    small = np.concatenate([in_large[:3], outside[:3]])
    a = Vector.from_coo(pool[in_large], _values(rng, in_large.size, dtype), dtype=dtype)
    b = Vector.from_coo(pool[small], _values(rng, small.size, dtype), dtype=dtype)
    in_type, out_type = _op_dtypes(name, dtype)
    for left, right in ((a, b), (b, a)):
        expected = _union_oracle(
            _as_dict(left), _as_dict(right), f, in_type, out_type
        )
        _assert_matches(left.ewise_add(right, name), expected)


@pytest.mark.parametrize("regime", ["keyed", "coo"])
@pytest.mark.parametrize("name", ACCUM_OPS)
def test_matrix_update_accumulates(name, regime, rng):
    f, dtype = BINARY_ORACLES[name]
    if regime == "keyed":  # a small shape packs both operands into one key space
        pool, shape = POOLS["packed"], {"nrows": 16, "ncols": 16}
    else:
        pool, shape = POOLS["full64"], {}
    A, B = _matrix_operands(rng, pool, dtype)
    A, B = (Matrix.from_coo(*M.extract_tuples(), **shape) for M in (A, B))
    np_type = _scalar_type(A.dtype)
    expected = _union_oracle(_as_dict(A), _as_dict(B), f, np_type, np_type)
    assert A.update(B, binary[name]) is A
    _assert_matches(A, expected)


@pytest.mark.parametrize("name", sorted(UNARY_ORACLES))
def test_matrix_apply_unary(name, rng):
    f, dtype = UNARY_ORACLES[name]
    A, _ = _matrix_operands(rng, POOLS["full64"], dtype)
    in_type = lookup_dtype(dtype)
    out_type = _scalar_type(unary[name].output_type(in_type))
    B = A.apply(name)
    assert B.dtype.np_type == out_type
    expected = {
        k: out_type(_scalar(f, in_type.np_type, v)) for k, v in _as_dict(A).items()
    }
    _assert_matches(B, expected)


def _grouped_oracle(entries, key, f, np_type):
    groups = {}
    for k, v in entries.items():
        groups.setdefault(key(k), []).append(v)
    return {
        g: np_type(reduce(lambda x, y: _scalar(f, np_type, x, y), vals))
        for g, vals in groups.items()
    }


@pytest.mark.parametrize("axis", ["rowwise", "columnwise", "scalar"])
@pytest.mark.parametrize("name", sorted(MONOID_ORACLES))
def test_matrix_reduce(name, axis, rng):
    f, dtype = MONOID_ORACLES[name]
    A, _ = _matrix_operands(rng, POOLS["full64"], dtype)
    np_type = _scalar_type(A.dtype)
    key = {
        "rowwise": lambda rc: rc[0],
        "columnwise": lambda rc: rc[1],
        "scalar": lambda rc: None,
    }[axis]
    expected = _grouped_oracle(_as_dict(A), key, f, np_type)
    if axis == "scalar":
        assert A.reduce_scalar(name) == expected[None]
        assert A.reduce_scalar(monoid[name]) == expected[None]
    else:
        _assert_matches(getattr(A, f"reduce_{axis}")(name), expected)


@pytest.mark.parametrize("name", sorted(MONOID_ORACLES))
def test_vector_reduce(name, rng):
    f, dtype = MONOID_ORACLES[name]
    idx = np.unique(rng.integers(0, 2**64 - 1, size=25, dtype=np.uint64))
    v = Vector.from_coo(idx, _values(rng, idx.size, dtype), dtype=dtype)
    expected = _grouped_oracle(_as_dict(v), lambda i: None, f, _scalar_type(v.dtype))
    assert v.reduce(name) == expected[None]
    assert Vector(dtype, 8).reduce(name) == monoid[name].identity_for(v.dtype)
