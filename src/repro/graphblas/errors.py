"""Exception hierarchy mirroring the GraphBLAS C API error codes.

The GraphBLAS specification defines a set of API and execution errors
(``GrB_DIMENSION_MISMATCH``, ``GrB_INDEX_OUT_OF_BOUNDS`` and friends).  The
pure-Python substrate in :mod:`repro.graphblas` raises the exceptions below in
the corresponding situations so that user code written against this library
reads like code written against a conventional GraphBLAS binding.
"""

from __future__ import annotations

__all__ = [
    "GraphBLASError",
    "DimensionMismatch",
    "IndexOutOfBound",
    "DomainMismatch",
    "InvalidValue",
    "InvalidIndex",
]


class GraphBLASError(Exception):
    """Base class for every error raised by :mod:`repro.graphblas`."""


class DimensionMismatch(GraphBLASError):
    """Operands have incompatible shapes (``GrB_DIMENSION_MISMATCH``)."""


class IndexOutOfBound(GraphBLASError):
    """A row or column index exceeds the matrix dimensions."""


class DomainMismatch(GraphBLASError):
    """Operand value types are incompatible with the requested operator."""


class InvalidValue(GraphBLASError):
    """A scalar argument is outside its permitted range."""


class InvalidIndex(GraphBLASError):
    """An index array is malformed (negative, non-integer, wrong length)."""
