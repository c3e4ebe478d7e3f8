"""Sparse GraphBLAS vectors.

A :class:`Vector` stores only its nonzero entries as sorted ``uint64`` indices
plus values, so it supports the same hypersparse dimensions as
:class:`~repro.graphblas.matrix.Matrix` (e.g. a degree vector over the full
IPv4 address space).  The API mirrors the GraphBLAS vector operations: build,
setElement/extractElement, eWiseAdd/eWiseMult, apply and reduce.

Like :class:`~repro.graphblas.matrix.Matrix`, vectors support deferred
(``lazy=True``) builds — batches append to a pending buffer in O(n) and the
sort + duplicate-collapse + merge is postponed until the next read — plus an
O(n) :meth:`Vector.merge_sorted` fast path for callers that already hold
sorted, duplicate-free pairs.  The incremental reduction trackers in
:mod:`repro.core.reductions` merge their fused group-reductions through
``merge_sorted``, so maintaining per-endpoint degree/traffic profiles never
re-sorts against the growing stored vectors.

A vector index is its own 64-bit sort key, so every build, flush and merge
here runs on the same two keyed kernels as :class:`Matrix`
(:func:`~repro.graphblas._kernels.sort_collapse_keys`,
:func:`~repro.graphblas._kernels.merge_keys`) with nothing to pack.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

import numpy as np

from . import _kernels as K
from . import arena
from .binaryop import BinaryOp, binary
from .errors import DimensionMismatch, IndexOutOfBound, InvalidValue
from .monoid import Monoid, monoid
from .types import DataType, lookup_dtype

__all__ = ["Vector"]

MAX_DIM = 2 ** 64


class Vector:
    """A sparse vector over a GraphBLAS scalar type.

    Parameters
    ----------
    dtype:
        GraphBLAS type of stored values.
    size:
        Logical length; may be as large as ``2**64``.

    Examples
    --------
    >>> v = Vector("int64", size=2**32)
    >>> v.build([3, 5, 5], [1, 1, 1])
    >>> v.nvals, v[5]
    (2, 2)
    """

    __slots__ = (
        "_size",
        "_dtype",
        "_indices",
        "_vals",
        "_pend",
        "_pend_op",
        "name",
    )

    def __init__(self, dtype="fp64", size: int = MAX_DIM, *, name: str = ""):
        self._dtype = lookup_dtype(dtype)
        size = int(size)
        if size <= 0 or size > MAX_DIM:
            raise InvalidValue(f"size must be in [1, 2**64], got {size}")
        self._size = size
        self._indices = np.empty(0, dtype=K.INDEX_DTYPE)
        self._vals = np.empty(0, dtype=self._dtype.np_type)
        # Pending (index, value-bits) pairs live in a preallocated arena:
        # appends are memcpys, the flush sorts the used prefix directly.
        self._pend = arena.PendingArena(2)
        self._pend_op: Optional[BinaryOp] = None
        self.name = name

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_coo(cls, indices, values=1, *, dtype=None, size: int = MAX_DIM,
                 dup_op: Optional[BinaryOp] = None, name: str = "") -> "Vector":
        """Build a vector from (index, value) pairs; duplicates combine with ``dup_op``."""
        idx = K.as_index_array(indices, "indices")
        if np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0):
            v = np.full(idx.size, values)
        else:
            v = np.asarray(values)
        if dtype is not None:
            v = v.astype(lookup_dtype(dtype).np_type)
        out = cls(v.dtype if dtype is None else dtype, size, name=name)
        out.build(idx, v, dup_op=dup_op)
        return out

    def dup(self, *, dtype=None, name: str = "") -> "Vector":
        """Deep copy (optionally cast to ``dtype``)."""
        self._wait()
        target = lookup_dtype(dtype) if dtype is not None else self._dtype
        out = Vector(target, self._size, name=name or self.name)
        out._indices = self._indices.copy()
        out._vals = self._vals.astype(target.np_type, copy=True)
        return out

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def size(self) -> int:
        """Logical length of the vector."""
        return self._size

    @property
    def dtype(self) -> DataType:
        """The GraphBLAS scalar type of stored values."""
        return self._dtype

    @property
    def nvals(self) -> int:
        """Number of stored entries.  Forces completion of pending updates."""
        self._wait()
        return int(self._indices.size)

    @property
    def nvals_upper_bound(self) -> int:
        """Stored entries plus pending (not yet merged) entries.

        Unlike :attr:`nvals` this does not force a merge, so it is O(1);
        deferred-accumulation callers use it to budget flushes cheaply.
        """
        return int(self._indices.size) + self._pend.used

    @property
    def has_pending(self) -> bool:
        """True when lazily built entries are buffered but not yet merged."""
        return self._pend.used > 0

    @property
    def memory_breakdown(self) -> dict:
        """Resident bytes by role: stored arrays vs pending used/capacity.

        The pending arena preallocates geometrically, so its resident
        footprint (``pending_capacity_bytes``) can exceed the live data
        (``pending_used_bytes``).
        """
        return {
            "stored_bytes": int(self._indices.nbytes + self._vals.nbytes),
            "pending_used_bytes": int(self._pend.used_bytes),
            "pending_capacity_bytes": int(self._pend.capacity_bytes),
        }

    @property
    def memory_usage(self) -> int:
        """Approximate resident bytes: stored arrays plus pending *capacity*."""
        b = self.memory_breakdown
        return b["stored_bytes"] + b["pending_capacity_bytes"]

    def _append_pending(self, idx: np.ndarray, v: np.ndarray, op: BinaryOp) -> None:
        """Append validated pairs to the pending buffer under operator ``op``.

        The whole buffer shares one combining operator; switching operators
        flushes first so ordering semantics are preserved exactly (mirrors
        :meth:`Matrix._append_pending <repro.graphblas.matrix.Matrix>`).
        Values are canonicalised to the vector dtype here — as raw bits, so
        the flush never re-casts — and the arena copies, so callers may
        reuse their batch buffers freely.
        """
        if idx.size == 0:
            return
        if self._pend.used and self._pend_op is not None and self._pend_op is not op:
            self._wait()
        self._pend_op = op
        self._pend.append(idx, arena.value_bits(v, self._dtype.np_type))

    def _wait(self) -> None:
        """Merge any pending entries into the sorted representation.

        Mirrors ``GrB_wait`` on :class:`Matrix`: pending insertions are sorted
        stably (insertion order survives for ``first``/``second``), duplicate
        indices are collapsed with the buffer's operator, and the result is
        union-merged into the stored arrays with the same operator.  The
        pending arena is read as zero-copy views — no concatenation, no
        dtype conversion.
        """
        if self._pend.used == 0:
            return
        op = self._pend_op if self._pend_op is not None else binary.second
        idx_view, bits_view = self._pend.views()
        v_view = arena.bits_to_values(bits_view, self._dtype.np_type)
        idx, v = K.sort_collapse_keys(idx_view, v_view, op)  # fresh arrays, detached
        self._pend.reset()
        self._pend_op = None
        self._merge(idx, v, op)

    def _merge(self, idx: np.ndarray, v: np.ndarray, op: BinaryOp) -> None:
        """Union sorted, duplicate-free ``(idx, v)`` into the stored entries."""
        if idx.size == 0:
            return
        self._indices, self._vals = K.merge_keys(
            self._indices, self._vals, idx, v, op, self._dtype.np_type
        )

    def wait(self) -> "Vector":
        """Public ``GrB_wait`` equivalent; returns ``self`` for chaining."""
        self._wait()
        return self

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def _check_indices(self, idx: np.ndarray) -> None:
        if idx.size and self._size < MAX_DIM and idx.max() >= np.uint64(self._size):
            raise IndexOutOfBound(
                f"index {int(idx.max())} out of range for size={self._size}"
            )

    def build(self, indices, values=1, *, dup_op: Optional[BinaryOp] = None,
              clear: bool = False, lazy: bool = False) -> "Vector":
        """Insert a batch of (index, value) pairs, merging with ``dup_op`` (default plus).

        Parameters
        ----------
        indices, values:
            Parallel arrays of entries; ``values`` may be a scalar broadcast
            over all indices.
        dup_op:
            Operator combining duplicate indices (within the batch and against
            stored entries); default ``plus``.
        clear:
            Drop all stored entries first (strict replace-all semantics).
        lazy:
            Append the pairs to the pending buffer in O(n) and defer the
            sort/collapse/merge until the next read, exactly like
            ``Matrix.build(lazy=True)``.  Requires an associative ``dup_op``
            (deferral regroups batches); non-associative operators ignore
            ``lazy`` and build eagerly.
        """
        if clear:
            self.clear()
        idx = K.as_index_array(indices, "indices")
        if np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0):
            v = np.full(idx.size, values, dtype=self._dtype.np_type)
        else:
            v = np.asarray(values).astype(self._dtype.np_type, copy=False)
        if v.size != idx.size:
            raise DimensionMismatch(
                f"values length {v.size} does not match index length {idx.size}"
            )
        self._check_indices(idx)
        if dup_op is None:
            dup_op = binary.plus
        if lazy and dup_op.associative:
            self._append_pending(idx, v, dup_op)
            return self
        self._wait()
        self._merge(*K.sort_collapse_keys(idx, v, dup_op), dup_op)
        return self

    def merge_sorted(self, indices: np.ndarray, values: np.ndarray,
                     op: Optional[BinaryOp] = None) -> "Vector":
        """Merge *sorted, duplicate-free* (index, value) arrays in O(n) — no sort.

        The fast path for callers that already hold grouped reductions (the
        incremental degree trackers): stored and incoming entries are combined
        with ``op`` (default ``plus``) by one vectorised two-way merge.
        Behaviour is identical to ``build(indices, values, dup_op=op)`` for
        inputs that are sorted and duplicate-free; anything else corrupts the
        sorted invariant, so callers must guarantee it.
        """
        if op is None:
            op = binary.plus
        idx = K.as_index_array(indices, "indices")
        self._check_indices(idx)
        v = np.asarray(values).astype(self._dtype.np_type, copy=False)
        if v.size != idx.size:
            raise DimensionMismatch(
                f"values length {v.size} does not match index length {idx.size}"
            )
        self._wait()
        self._merge(idx, v, op)
        return self

    def setElement(self, index: int, value) -> None:
        """Set a single entry (replaces any existing value)."""
        self.build([index], [value], dup_op=binary.second)

    def extractElement(self, index: int, default=None):
        """Read a single entry; ``default`` when not stored."""
        self._wait()
        pos = np.searchsorted(self._indices, np.uint64(int(index)))
        if pos < self._indices.size and self._indices[pos] == np.uint64(int(index)):
            return self._vals[pos].item()
        return default

    get = extractElement

    def clear(self) -> "Vector":
        """Remove every stored entry (including pending ones)."""
        self._indices = np.empty(0, dtype=K.INDEX_DTYPE)
        self._vals = np.empty(0, dtype=self._dtype.np_type)
        self._pend.clear()
        self._pend_op = None
        return self

    def resize(self, size: int) -> "Vector":
        """Change the logical length, dropping entries that fall outside."""
        size = int(size)
        if size <= 0 or size > MAX_DIM:
            raise InvalidValue(f"size must be in [1, 2**64], got {size}")
        self._wait()
        if self._indices.size and size < MAX_DIM:
            keep = self._indices < np.uint64(size)
            self._indices = self._indices[keep]
            self._vals = self._vals[keep]
        self._size = size
        return self

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, values)`` copies of all stored entries."""
        self._wait()
        return self._indices.copy(), self._vals.copy()

    extract_tuples = to_coo

    # ------------------------------------------------------------------ #
    # element-wise operations
    # ------------------------------------------------------------------ #

    def _coerce_op(self, op, default) -> BinaryOp:
        if op is None:
            return default
        if isinstance(op, str):
            return binary[op]
        if isinstance(op, Monoid):
            return op.op
        return op

    def ewise_add(self, other: "Vector", op=None) -> "Vector":
        """Element-wise union of two vectors."""
        op = self._coerce_op(op, binary.plus)
        if other._size != self._size:
            raise DimensionMismatch(
                f"eWiseAdd requires equal sizes, got {self._size} and {other._size}"
            )
        self._wait()
        other._wait()
        out_type = op.output_type(self._dtype, other._dtype)
        out = Vector(out_type, self._size)
        out._indices, out._vals = K.merge_keys(
            self._indices, self._vals, other._indices, other._vals, op, out_type.np_type
        )
        return out

    def ewise_mult(self, other: "Vector", op=None) -> "Vector":
        """Element-wise intersection of two vectors."""
        op = self._coerce_op(op, binary.times)
        if other._size != self._size:
            raise DimensionMismatch(
                f"eWiseMult requires equal sizes, got {self._size} and {other._size}"
            )
        self._wait()
        other._wait()
        out_type = op.output_type(self._dtype, other._dtype)
        out = Vector(out_type, self._size)
        i, _, v = K.intersect_merge(
            (self._indices, np.zeros(self._indices.size, dtype=K.INDEX_DTYPE), self._vals),
            (other._indices, np.zeros(other._indices.size, dtype=K.INDEX_DTYPE), other._vals),
            op,
            out_dtype=out_type.np_type,
        )
        out._indices, out._vals = i, v.astype(out_type.np_type, copy=False)
        return out

    def __add__(self, other: "Vector") -> "Vector":
        return self.ewise_add(other, binary.plus)

    def __mul__(self, other):
        if isinstance(other, Vector):
            return self.ewise_mult(other, binary.times)
        return self.apply(binary.times, right=other)

    # ------------------------------------------------------------------ #
    # apply / reduce
    # ------------------------------------------------------------------ #

    def apply(self, op, *, left=None, right=None) -> "Vector":
        """Apply a unary operator (or binary bound to a scalar) to every value."""
        from .unaryop import UnaryOp, unary as unary_ns

        self._wait()
        if isinstance(op, str):
            op = unary_ns[op] if op in unary_ns else binary[op]
        if isinstance(op, UnaryOp):
            out_type = op.output_type(self._dtype)
            new_vals = op(self._vals)
        else:
            if (left is None) == (right is None):
                raise InvalidValue("binary apply requires exactly one of left= or right=")
            out_type = op.output_type(self._dtype, self._dtype)
            if left is not None:
                new_vals = op(np.full(self._vals.size, left), self._vals)
            else:
                new_vals = op(self._vals, np.full(self._vals.size, right))
        out = Vector(out_type, self._size)
        out._indices = self._indices.copy()
        out._vals = np.asarray(new_vals).astype(out_type.np_type, copy=False)
        return out

    def reduce(self, op: Optional[Union[Monoid, str]] = None):
        """Reduce every stored value to a scalar (monoid identity if empty)."""
        m = monoid[op] if isinstance(op, str) else (op or monoid.plus)
        self._wait()
        return m.reduce(self._vals, dtype=self._dtype)

    def isequal(self, other: "Vector", *, check_dtype: bool = False) -> bool:
        """Exact equality of pattern and values."""
        if not isinstance(other, Vector) or self._size != other._size:
            return False
        if check_dtype and self._dtype is not other._dtype:
            return False
        self._wait()
        other._wait()
        return bool(
            np.array_equal(self._indices, other._indices)
            and np.array_equal(self._vals, other._vals)
        )

    def isclose(self, other: "Vector", *, rel_tol: float = 1e-7, abs_tol: float = 0.0) -> bool:
        """Pattern equality with approximately-equal values."""
        if not isinstance(other, Vector) or self._size != other._size:
            return False
        self._wait()
        other._wait()
        if not np.array_equal(self._indices, other._indices):
            return False
        return bool(
            np.allclose(
                self._vals.astype(np.float64),
                other._vals.astype(np.float64),
                rtol=rel_tol,
                atol=abs_tol,
            )
        )

    # ------------------------------------------------------------------ #
    # python protocol
    # ------------------------------------------------------------------ #

    def __getitem__(self, index):
        if np.isscalar(index):
            return self.extractElement(int(index))
        raise TypeError("Vector indexing requires a scalar index")

    def __setitem__(self, index, value):
        self.setElement(int(index), value)

    def __contains__(self, index) -> bool:
        return self.extractElement(int(index)) is not None

    def __iter__(self) -> Iterator[Tuple[int, object]]:
        self._wait()
        for i in range(self._indices.size):
            yield int(self._indices[i]), self._vals[i].item()

    def __bool__(self) -> bool:
        return self.nvals > 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Vector{label} size={self._size} {self._dtype.name}, "
            f"nvals={self.nvals_upper_bound}{'+' if self.has_pending else ''}>"
        )
