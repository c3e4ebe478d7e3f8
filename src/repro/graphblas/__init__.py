"""A from-scratch hypersparse GraphBLAS substrate in NumPy.

This package re-implements the subset of the SuiteSparse:GraphBLAS
functionality that the paper's hierarchical hypersparse matrices rely on:

* hypersparse :class:`Matrix` and sparse :class:`Vector` containers whose
  storage cost depends only on the number of stored values (``nvals``), never
  on the logical dimensions — so a :math:`2^{64} \\times 2^{64}` IPv6 traffic
  matrix is a perfectly ordinary object;
* the accumulating update ``A += B`` (``plus`` by default) that carries one
  hierarchy layer into the next, with element-wise add/multiply, apply,
  extract and transpose for the D4M associative arrays;
* binary/unary operators and monoids, and the row, column and scalar
  reductions the analyses read;
* SuiteSparse-style *pending tuples* so that streams of scalar insertions are
  buffered and merged lazily.

Example
-------
>>> from repro.graphblas import Matrix
>>> A = Matrix.from_coo([0, 1], [1, 2], [1.0, 2.0], nrows=3, ncols=3)
>>> B = Matrix.from_coo([0, 2], [1, 0], [3.0, 4.0], nrows=3, ncols=3)
>>> A += B
>>> sorted(A)
[(0, 1, 4.0), (1, 2, 2.0), (2, 0, 4.0)]
>>> A.reduce_rowwise()[0]
4.0
"""

from . import coords
from .binaryop import BinaryOp, binary
from .errors import (
    DimensionMismatch,
    DomainMismatch,
    GraphBLASError,
    IndexOutOfBound,
    InvalidIndex,
    InvalidValue,
)
from .matrix import Matrix
from .monoid import Monoid, monoid
from .types import (
    BOOL,
    FP32,
    FP64,
    INT8,
    INT16,
    INT32,
    INT64,
    UINT8,
    UINT16,
    UINT32,
    UINT64,
    DataType,
    lookup_dtype,
    unify,
)
from .unaryop import UnaryOp, unary
from .vector import Vector

__all__ = [
    "coords",
    "Matrix",
    "Vector",
    "BinaryOp",
    "UnaryOp",
    "Monoid",
    "binary",
    "unary",
    "monoid",
    "DataType",
    "lookup_dtype",
    "unify",
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
    "GraphBLASError",
    "DimensionMismatch",
    "DomainMismatch",
    "IndexOutOfBound",
    "InvalidIndex",
    "InvalidValue",
]
