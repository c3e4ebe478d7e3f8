"""GraphBLAS monoids: associative, commutative binary operators with identity.

Monoids drive reductions (``Matrix.reduce_rowwise``, ``reduce_scalar``).
Each monoid references a :class:`BinaryOp`, its
identity element, and (where one exists) a *terminal* value that permits early
exit — exactly mirroring SuiteSparse's monoid descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from .binaryop import BinaryOp, binary
from .errors import DomainMismatch
from .types import BOOL, DataType, lookup_dtype

__all__ = ["Monoid", "monoid", "MONOIDS"]


@dataclass(frozen=True)
class Monoid:
    """An associative, commutative binary operator together with its identity.

    Attributes
    ----------
    name:
        Canonical lower-case name, e.g. ``"plus"``.
    op:
        The underlying :class:`BinaryOp`.
    identity:
        The identity element (may be a callable of the dtype for
        type-dependent identities such as ``min``'s +inf / INT_MAX).
    terminal:
        Optional absorbing element permitting early-exit during reduction.
    """

    name: str
    op: BinaryOp
    identity: Any = field(compare=False)
    terminal: Optional[Any] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.op.associative:
            raise DomainMismatch(
                f"Binary op {self.op.name!r} is not associative; cannot form a monoid"
            )

    def identity_for(self, dtype) -> np.generic:
        """The identity element cast into ``dtype``'s domain."""
        dt = lookup_dtype(dtype)
        ident = self.identity
        if callable(ident):
            ident = ident(dt)
        return dt.np_type.type(ident)

    def terminal_for(self, dtype) -> Optional[np.generic]:
        """The terminal (absorbing) element in ``dtype``'s domain, if any."""
        if self.terminal is None:
            return None
        dt = lookup_dtype(dtype)
        term = self.terminal
        if callable(term):
            term = term(dt)
        return dt.np_type.type(term)

    def __call__(self, x, y):
        return self.op(x, y)

    def reduce(self, values: np.ndarray, dtype=None):
        """Reduce a 1-D array of values with this monoid.

        Returns the monoid identity when ``values`` is empty.
        """
        values = np.asarray(values)
        dt = lookup_dtype(dtype if dtype is not None else values.dtype)
        if values.size == 0:
            return self.identity_for(dt)
        if self.op.ufunc is not None:
            return dt.np_type.type(self.op.ufunc.reduce(values.astype(dt.np_type)))
        out = values[0]
        for v in values[1:]:
            out = self.op(out, v)
        return dt.np_type.type(out)

    def reduce_groups(self, values: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
        """Reduce contiguous groups of ``values`` delimited by ``group_starts``.

        ``group_starts`` are the starting offsets of each group (as produced by
        a sort-and-unique pass); the fast path uses ``ufunc.reduceat``.
        """
        values = np.asarray(values)
        group_starts = np.asarray(group_starts, dtype=np.intp)
        if group_starts.size == 0:
            return values[:0]
        if self.op.ufunc is not None and self.op.ufunc.nin == 2:
            return self.op.ufunc.reduceat(values, group_starts)
        # Generic fallback: python loop over groups (rare; only non-ufunc ops).
        ends = np.append(group_starts[1:], values.size)
        out = np.empty(group_starts.size, dtype=values.dtype)
        for i, (s, e) in enumerate(zip(group_starts, ends)):
            acc = values[s]
            for j in range(s + 1, e):
                acc = self.op(acc, values[j])
            out[i] = acc
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Monoid({self.name})"


def _min_identity(dt: DataType):
    if dt.is_float:
        return np.inf
    if dt.is_bool:
        return True
    return np.iinfo(dt.np_type).max


def _max_identity(dt: DataType):
    if dt.is_float:
        return -np.inf
    if dt.is_bool:
        return False
    return np.iinfo(dt.np_type).min


_REGISTRY: Dict[str, Monoid] = {}


def _register(m: Monoid) -> Monoid:
    _REGISTRY[m.name] = m
    return m


PLUS = _register(Monoid("plus", binary.plus, 0))
TIMES = _register(Monoid("times", binary.times, 1, terminal=0))
MIN = _register(Monoid("min", binary.min, _min_identity, terminal=_max_identity))
MAX = _register(Monoid("max", binary.max, _max_identity, terminal=_min_identity))
ANY = _register(Monoid("any", binary.any, 0))
LOR = _register(Monoid("lor", binary.lor, False, terminal=True))
LAND = _register(Monoid("land", binary.land, True, terminal=False))
LXOR = _register(Monoid("lxor", binary.lxor, False))
BOR = _register(Monoid("bor", binary.bor, 0))
BAND = _register(Monoid("band", binary.band, lambda dt: np.iinfo(dt.np_type).max if dt.is_integer else 1))
BXOR = _register(Monoid("bxor", binary.bxor, 0))

MONOIDS: Dict[str, Monoid] = dict(_REGISTRY)


class _MonoidNamespace:
    """Attribute-style access to the built-in monoids (``monoid.plus`` ...)."""

    def __init__(self, registry: Dict[str, Monoid]):
        self._registry = registry
        for key, m in registry.items():
            setattr(self, key, m)

    def __getitem__(self, name: str) -> Monoid:
        return self._registry[name.lower()]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._registry

    def __iter__(self):
        return iter(self._registry.values())

    def register(self, name: str, op: BinaryOp, identity, terminal=None) -> Monoid:
        """Register a user-defined monoid and return it."""
        m = Monoid(name.lower(), op, identity, terminal)
        self._registry[m.name] = m
        setattr(self, m.name, m)
        MONOIDS[m.name] = m
        return m


monoid = _MonoidNamespace(_REGISTRY)
