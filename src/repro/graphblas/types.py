"""GraphBLAS scalar types backed by NumPy dtypes.

The GraphBLAS standard defines eleven built-in types (``GrB_BOOL``,
``GrB_INT8`` ... ``GrB_UINT64``, ``GrB_FP32``, ``GrB_FP64``).  This module maps
each to a :class:`DataType` descriptor wrapping the equivalent NumPy dtype and
provides the type-promotion rules used when two objects of different types are
combined (mirroring SuiteSparse's behaviour of promoting to the larger of the
two domains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

import numpy as np

__all__ = [
    "DataType",
    "BOOL",
    "INT8",
    "INT16",
    "INT32",
    "INT64",
    "UINT8",
    "UINT16",
    "UINT32",
    "UINT64",
    "FP32",
    "FP64",
    "lookup_dtype",
    "unify",
    "BUILTIN_TYPES",
]


@dataclass(frozen=True)
class DataType:
    """A GraphBLAS scalar type.

    Attributes
    ----------
    name:
        The GraphBLAS name, e.g. ``"FP64"``.
    np_type:
        The backing NumPy dtype.
    """

    name: str
    np_type: np.dtype = field(compare=False)

    def __post_init__(self) -> None:  # normalise to np.dtype
        object.__setattr__(self, "np_type", np.dtype(self.np_type))

    @property
    def is_bool(self) -> bool:
        return self.np_type == np.bool_

    @property
    def is_integer(self) -> bool:
        return np.issubdtype(self.np_type, np.integer)

    @property
    def is_unsigned(self) -> bool:
        return np.issubdtype(self.np_type, np.unsignedinteger)

    @property
    def is_float(self) -> bool:
        return np.issubdtype(self.np_type, np.floating)

    @property
    def itemsize(self) -> int:
        """Size in bytes of one scalar of this type."""
        return int(self.np_type.itemsize)

    def zero(self):
        """The additive identity in this domain as a NumPy scalar."""
        return self.np_type.type(0)

    def one(self):
        """The multiplicative identity in this domain as a NumPy scalar."""
        return self.np_type.type(1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataType({self.name})"


BOOL = DataType("BOOL", np.bool_)
INT8 = DataType("INT8", np.int8)
INT16 = DataType("INT16", np.int16)
INT32 = DataType("INT32", np.int32)
INT64 = DataType("INT64", np.int64)
UINT8 = DataType("UINT8", np.uint8)
UINT16 = DataType("UINT16", np.uint16)
UINT32 = DataType("UINT32", np.uint32)
UINT64 = DataType("UINT64", np.uint64)
FP32 = DataType("FP32", np.float32)
FP64 = DataType("FP64", np.float64)

BUILTIN_TYPES = (
    BOOL,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    FP32,
    FP64,
)

_BY_NAME: Dict[str, DataType] = {t.name: t for t in BUILTIN_TYPES}
_BY_NPDTYPE: Dict[np.dtype, DataType] = {t.np_type: t for t in BUILTIN_TYPES}

DTypeLike = Union[DataType, str, np.dtype, type]


def lookup_dtype(value: DTypeLike) -> DataType:
    """Resolve ``value`` (name, NumPy dtype, Python type, or DataType) to a DataType.

    Examples
    --------
    >>> lookup_dtype("fp64") is FP64
    True
    >>> lookup_dtype(np.int32) is INT32
    True
    >>> lookup_dtype(float) is FP64
    True
    """
    if isinstance(value, DataType):
        return value
    if isinstance(value, str):
        key = value.upper()
        aliases = {
            "FLOAT": "FP32",
            "FLOAT32": "FP32",
            "DOUBLE": "FP64",
            "FLOAT64": "FP64",
            "INT": "INT64",
            "UINT": "UINT64",
        }
        key = aliases.get(key, key)
        if key in _BY_NAME:
            return _BY_NAME[key]
        # Fall through to NumPy name resolution ("float64", "int8", ...).
        try:
            npdt = np.dtype(value)
        except TypeError as exc:  # pragma: no cover - defensive
            raise KeyError(f"Unknown GraphBLAS type name: {value!r}") from exc
        if npdt in _BY_NPDTYPE:
            return _BY_NPDTYPE[npdt]
        raise KeyError(f"Unknown GraphBLAS type name: {value!r}")
    if value is bool:
        return BOOL
    if value is int:
        return INT64
    if value is float:
        return FP64
    npdt = np.dtype(value)
    if npdt in _BY_NPDTYPE:
        return _BY_NPDTYPE[npdt]
    raise KeyError(f"No GraphBLAS type for dtype {npdt!r}")


def unify(a: DTypeLike, b: DTypeLike) -> DataType:
    """Type-promotion of two GraphBLAS types.

    Follows NumPy's promotion rules restricted to the GraphBLAS domains, with
    the special case that BOOL+BOOL stays BOOL.
    """
    ta, tb = lookup_dtype(a), lookup_dtype(b)
    if ta is tb:
        return ta
    # Every pair of GraphBLAS types promotes to a GraphBLAS type (e.g.
    # uint64 + int64 promotes to float64 under NumPy).
    return _BY_NPDTYPE[np.promote_types(ta.np_type, tb.np_type)]
