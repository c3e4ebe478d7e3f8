"""GraphBLAS binary operators.

A :class:`BinaryOp` is a named, vectorised function of two NumPy arrays.  The
registry below implements the standard GraphBLAS built-ins (``GrB_PLUS``,
``GrB_TIMES``, ``GrB_MIN`` ... and the SuiteSparse extensions ``FIRST``,
``SECOND``, ``PAIR``/``ONEB``, ``ANY``).  Operators carry an optional NumPy
ufunc handle so that kernels (duplicate reduction during ``build``, monoid
reductions) can use ``ufunc.reduceat`` fast paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .types import BOOL, DataType, lookup_dtype, unify

__all__ = [
    "BinaryOp",
    "binary",
    "BINARY_OPS",
]


@dataclass(frozen=True)
class BinaryOp:
    """A binary operator ``z = f(x, y)`` applied element-wise.

    Attributes
    ----------
    name:
        Canonical lower-case name, e.g. ``"plus"``.
    func:
        Vectorised implementation taking two ndarrays and returning an ndarray.
    ufunc:
        The NumPy ufunc backing ``func`` when one exists (enables ``reduceat``
        fast paths in duplicate-collapse kernels); ``None`` otherwise.
    bool_result:
        True when the operator always returns BOOL (comparison operators).
    commutative:
        Whether ``f(x, y) == f(y, x)`` for all inputs.
    associative:
        Whether the operator is associative (a prerequisite for monoid use).
    """

    name: str
    func: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(compare=False)
    ufunc: Optional[np.ufunc] = field(default=None, compare=False)
    bool_result: bool = False
    commutative: bool = False
    associative: bool = False

    def __call__(self, x, y):
        """Apply the operator element-wise to ``x`` and ``y``."""
        return self.func(np.asarray(x), np.asarray(y))

    def output_type(self, a: DataType, b: DataType) -> DataType:
        """The GraphBLAS type of ``f(a, b)``."""
        if self.bool_result:
            return BOOL
        return unify(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BinaryOp({self.name})"


def _first(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.array(x, copy=True)


def _second(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.array(y, copy=True)


def _pair(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.ones_like(np.asarray(x))
    return out


def _safe_div(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    y = np.asarray(y)
    if np.issubdtype(x.dtype, np.integer) and np.issubdtype(y.dtype, np.integer):
        # GraphBLAS integer division truncates toward zero; guard div-by-zero.
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(y == 0, 0, x // np.where(y == 0, 1, y))
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.true_divide(x, y)


def _rdiv(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _safe_div(y, x)


def _rminus(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.subtract(y, x)


def _iseq(x, y):
    return np.equal(x, y)


_REGISTRY: Dict[str, BinaryOp] = {}


def _register(op: BinaryOp) -> BinaryOp:
    _REGISTRY[op.name] = op
    return op


PLUS = _register(
    BinaryOp("plus", np.add, ufunc=np.add, commutative=True, associative=True)
)
MINUS = _register(BinaryOp("minus", np.subtract, ufunc=np.subtract))
RMINUS = _register(BinaryOp("rminus", _rminus))
TIMES = _register(
    BinaryOp(
        "times", np.multiply, ufunc=np.multiply, commutative=True, associative=True
    )
)
DIV = _register(BinaryOp("div", _safe_div))
RDIV = _register(BinaryOp("rdiv", _rdiv))
MIN = _register(
    BinaryOp("min", np.minimum, ufunc=np.minimum, commutative=True, associative=True)
)
MAX = _register(
    BinaryOp("max", np.maximum, ufunc=np.maximum, commutative=True, associative=True)
)
FIRST = _register(BinaryOp("first", _first, associative=True))
SECOND = _register(BinaryOp("second", _second, associative=True))
PAIR = _register(BinaryOp("pair", _pair, commutative=True, associative=True))
ONEB = _register(BinaryOp("oneb", _pair, commutative=True, associative=True))
ANY = _register(BinaryOp("any", _first, commutative=True, associative=True))
POW = _register(BinaryOp("pow", np.power, ufunc=np.power))
HYPOT = _register(BinaryOp("hypot", np.hypot, ufunc=np.hypot, commutative=True))
FMOD = _register(BinaryOp("fmod", np.fmod, ufunc=np.fmod))

LAND = _register(
    BinaryOp(
        "land",
        lambda x, y: np.logical_and(x, y),
        ufunc=np.logical_and,
        bool_result=True,
        commutative=True,
        associative=True,
    )
)
LOR = _register(
    BinaryOp(
        "lor",
        lambda x, y: np.logical_or(x, y),
        ufunc=np.logical_or,
        bool_result=True,
        commutative=True,
        associative=True,
    )
)
LXOR = _register(
    BinaryOp(
        "lxor",
        lambda x, y: np.logical_xor(x, y),
        ufunc=np.logical_xor,
        bool_result=True,
        commutative=True,
        associative=True,
    )
)
LXNOR = _register(
    BinaryOp(
        "lxnor",
        lambda x, y: np.logical_not(np.logical_xor(x, y)),
        bool_result=True,
        commutative=True,
        associative=True,
    )
)

EQ = _register(
    BinaryOp("eq", _iseq, ufunc=np.equal, bool_result=True, commutative=True)
)
NE = _register(
    BinaryOp("ne", np.not_equal, ufunc=np.not_equal, bool_result=True, commutative=True)
)
GT = _register(BinaryOp("gt", np.greater, ufunc=np.greater, bool_result=True))
LT = _register(BinaryOp("lt", np.less, ufunc=np.less, bool_result=True))
GE = _register(BinaryOp("ge", np.greater_equal, ufunc=np.greater_equal, bool_result=True))
LE = _register(BinaryOp("le", np.less_equal, ufunc=np.less_equal, bool_result=True))

BAND = _register(
    BinaryOp(
        "band", np.bitwise_and, ufunc=np.bitwise_and, commutative=True, associative=True
    )
)
BOR = _register(
    BinaryOp(
        "bor", np.bitwise_or, ufunc=np.bitwise_or, commutative=True, associative=True
    )
)
BXOR = _register(
    BinaryOp(
        "bxor", np.bitwise_xor, ufunc=np.bitwise_xor, commutative=True, associative=True
    )
)

# Public mapping of every registered operator, keyed by name.
BINARY_OPS: Dict[str, BinaryOp] = dict(_REGISTRY)


class _BinaryNamespace:
    """Attribute-style access to the built-in binary operators.

    ``binary.plus``, ``binary.times`` ... mirrors the namespaces exposed by the
    python-graphblas package, so downstream code reads familiarly.
    """

    def __init__(self, registry: Dict[str, BinaryOp]):
        self._registry = registry
        for key, op in registry.items():
            setattr(self, key, op)

    def __getitem__(self, name: str) -> BinaryOp:
        return self._registry[name.lower()]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._registry

    def __iter__(self):
        return iter(self._registry.values())

    def register(self, name: str, func, **kwargs) -> BinaryOp:
        """Register a user-defined binary operator and return it."""
        op = BinaryOp(name.lower(), func, **kwargs)
        self._registry[op.name] = op
        setattr(self, op.name, op)
        BINARY_OPS[op.name] = op
        return op


binary = _BinaryNamespace(_REGISTRY)
