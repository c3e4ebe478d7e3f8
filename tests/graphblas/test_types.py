"""Tests for GraphBLAS scalar types and promotion rules."""

import numpy as np
import pytest

from repro.graphblas import types
from repro.graphblas.types import (
    BOOL,
    FP32,
    FP64,
    INT8,
    INT32,
    INT64,
    UINT8,
    UINT64,
    BUILTIN_TYPES,
    lookup_dtype,
    unify,
)


class TestLookup:
    def test_lookup_by_name(self):
        assert lookup_dtype("FP64") is FP64
        assert lookup_dtype("fp64") is FP64
        assert lookup_dtype("INT32") is INT32

    def test_lookup_by_alias(self):
        assert lookup_dtype("double") is FP64
        assert lookup_dtype("float") is FP32
        assert lookup_dtype("int") is INT64

    def test_lookup_by_numpy_name(self):
        assert lookup_dtype("float64") is FP64
        assert lookup_dtype("uint8") is UINT8

    def test_lookup_by_numpy_dtype(self):
        assert lookup_dtype(np.dtype(np.int64)) is INT64
        assert lookup_dtype(np.float32) is FP32

    def test_lookup_by_python_type(self):
        assert lookup_dtype(bool) is BOOL
        assert lookup_dtype(int) is INT64
        assert lookup_dtype(float) is FP64

    def test_lookup_identity(self):
        assert lookup_dtype(FP64) is FP64

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            lookup_dtype("complex128")

    def test_all_builtins_resolve_roundtrip(self):
        for t in BUILTIN_TYPES:
            assert lookup_dtype(t.name) is t
            assert lookup_dtype(t.np_type) is t


class TestProperties:
    def test_integer_flags(self):
        assert INT8.is_integer and not INT8.is_unsigned
        assert UINT64.is_integer and UINT64.is_unsigned
        assert not FP64.is_integer

    def test_float_flags(self):
        assert FP32.is_float and FP64.is_float
        assert not INT32.is_float

    def test_bool_flags(self):
        assert BOOL.is_bool
        assert not INT8.is_bool

    def test_itemsize(self):
        assert INT8.itemsize == 1
        assert FP64.itemsize == 8
        assert UINT64.itemsize == 8

    def test_zero_and_one(self):
        assert FP64.zero() == 0.0
        assert INT32.one() == 1
        assert BOOL.one() == True  # noqa: E712

    def test_repr(self):
        assert "FP64" in repr(FP64)


class TestUnify:
    def test_same_type(self):
        assert unify(FP64, FP64) is FP64
        assert unify(BOOL, BOOL) is BOOL

    def test_int_float_promotes_to_float(self):
        assert unify(INT32, FP64) is FP64
        assert unify(FP32, INT8) is FP32

    def test_small_ints_promote_upward(self):
        assert unify(INT8, INT32) is INT32
        assert unify(UINT8, UINT64) is UINT64

    def test_bool_with_int(self):
        assert unify(BOOL, INT8) is INT8

    def test_mixed_sign_promotes(self):
        out = unify(INT64, UINT64)
        assert out.is_float or out.is_integer  # NumPy promotes to FP64

    def test_unify_accepts_names(self):
        assert unify("int16", "fp32") is FP32
        assert unify("int32", "fp32") is FP64  # NumPy widens to preserve int32 range
