"""Hypersparse GraphBLAS matrices.

A :class:`Matrix` stores only its nonzero entries, sorted by coordinate, so
storage and operation cost are proportional to ``nvals`` and never to
``nrows * ncols``.  That is the *hypersparse* property required for IP traffic
matrices whose logical dimensions are :math:`2^{32} \\times 2^{32}` (IPv4) or
:math:`2^{64} \\times 2^{64}` (IPv6).

Keyed store
-----------
While every coordinate fits the matrix's *key spec* (the 64-bit split of its
shape, or the canonical 32/32 split for shapes too large to have one), the
authoritative store is ``(keys, vals)``: one sorted ``uint64`` packed key per
entry (see :mod:`repro.graphblas.coords`) plus its value, 16 bytes per
``fp64`` entry.  The streaming operations — lazy ``build``, the pending
flush, ``update`` — run entirely in key space on the two keyed kernels of
:mod:`repro.graphblas._kernels` and never pack or unpack; ``rows``/``cols``
are derived lazily for the operations that still want them and dropped again
on the next mutation.  A coordinate that does not fit the key spec demotes
the matrix to the dual-key ``(rows, cols, vals)`` store *before* anything is
stored (keys never alias), and ``coords.packing_disabled()`` runs every
operation on the dual-key lexsort kernels — the reference the keyed path is
property-tested against.

The class mirrors the GraphBLAS C API surface used by the paper (build,
setElement/extractElement, eWiseAdd, eWiseMult, reduce, apply, extract,
transpose, dup, clear) plus the pending-tuple
buffering that SuiteSparse uses to make streams of ``setElement`` calls cheap:
scalar insertions append to an unsorted pending buffer and are merged into the
sorted representation lazily, exactly the behaviour the hierarchical layering
in :mod:`repro.core` builds upon.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

import numpy as np

from . import _kernels as K
from . import arena, coords
from .binaryop import BinaryOp, binary
from .errors import (
    DimensionMismatch,
    IndexOutOfBound,
    InvalidValue,
)
from .monoid import Monoid, monoid
from .types import DataType, lookup_dtype

__all__ = ["Matrix"]

#: Maximum dimension: GraphBLAS "GrB_INDEX_MAX + 1"; full 64-bit index space.
MAX_DIM = 2 ** 64

_ALL = object()  # sentinel for "all rows/cols" in extract


def _check_dim(value: int, name: str) -> int:
    value = int(value)
    if value <= 0 or value > MAX_DIM:
        raise InvalidValue(f"{name} must be in [1, 2**64], got {value}")
    return value


class Matrix:
    """A hypersparse matrix over a GraphBLAS scalar type.

    Parameters
    ----------
    dtype:
        GraphBLAS type of the stored values (name, NumPy dtype, or DataType).
    nrows, ncols:
        Logical dimensions; may be as large as ``2**64``.
    name:
        Optional label used in ``repr``.

    Examples
    --------
    >>> A = Matrix("fp64", nrows=2**32, ncols=2**32)
    >>> A.build([1, 2, 2], [10, 20, 20], [1.0, 2.0, 3.0])
    >>> A.nvals
    2
    >>> A[2, 20]
    5.0
    """

    __slots__ = (
        "_nrows",
        "_ncols",
        "_dtype",
        "_spec",
        "_keys",
        "_rc",
        "_vals",
        "_pend",
        "_pend_op",
        "flush_hook",
        "name",
        "__weakref__",
    )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def __init__(self, dtype="fp64", nrows: int = MAX_DIM, ncols: int = MAX_DIM, *, name: str = ""):
        self._dtype = lookup_dtype(dtype)
        self._nrows = _check_dim(nrows, "nrows")
        self._ncols = _check_dim(ncols, "ncols")
        # Optional observer of pending-buffer flushes.  Called from _wait()
        # as hook(rows, cols, vals, keys, spec) with the sorted,
        # duplicate-collapsed flush window: a keyed flush passes (None,
        # None, vals, keys, spec), a dual-key flush (rows, cols, vals, None,
        # None).  It fires before the pending arena is reset, so the raw
        # window is still readable through pending_window().
        # HierarchicalMatrix points this at its incremental reduction
        # tracker so stats drains ride the flush's sort.
        self.flush_hook = None
        self.name = name
        self._enter_key_space()

    def _enter_key_space(self) -> None:
        """Start (or restart) empty, in key space under the shape's key spec."""
        self._spec: Optional[coords.PackedSpec] = (
            coords.shape_split(self._nrows, self._ncols) or coords.IPV4_SPEC
        )
        self._keys: Optional[np.ndarray] = np.empty(0, dtype=coords.KEY_DTYPE)
        self._rc: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._vals = np.empty(0, dtype=self._dtype.np_type)
        # Pending (key, value-bits) pairs live in a preallocated arena:
        # appends are memcpys (a scalar value is a fill), the flush sorts the
        # used prefix directly — no per-flush concatenation.
        self._pend = arena.PendingArena(2)
        self._pend_op: Optional[BinaryOp] = None

    # ------------------------------------------------------------------ #
    # the store: packed keys while they fit, (rows, cols) otherwise
    # ------------------------------------------------------------------ #

    @property
    def key_spec(self) -> Optional[coords.PackedSpec]:
        """The 64-bit split the stored keys use; ``None`` once demoted."""
        return self._spec

    def _coo(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stored ``(rows, cols)``, unpacked from the keys on first use."""
        if self._rc is None:
            self._rc = coords.unpack(self._keys, self._spec)
        return self._rc

    @property
    def _rows(self) -> np.ndarray:
        return self._coo()[0]

    @property
    def _cols(self) -> np.ndarray:
        return self._coo()[1]

    def _packed(self) -> np.ndarray:
        """Stored coordinates as sorted packed keys (key space only)."""
        if self._keys is None:
            self._keys = coords.pack(*self._rc, self._spec)
        return self._keys

    def _set_keys(self, keys: np.ndarray, vals: np.ndarray) -> None:
        self._keys, self._rc, self._vals = keys, None, vals

    def _set_coo(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Replace the content with sorted, duplicate-free triples."""
        if self._spec is not None and rows.size and not self._fits(rows.max(), cols.max()):
            self._demote()
        self._keys, self._rc, self._vals = None, (rows, cols), vals

    def _fits(self, max_row, max_col) -> bool:
        return int(max_row) <= self._spec.max_row and int(max_col) <= self._spec.max_col

    def _demote(self) -> None:
        """Leave key space for good: a coordinate does not fit one 64-bit key.

        Runs *before* the offending coordinate is stored.  Stored rows/cols
        become authoritative and the pending window moves, in order, into a
        three-column arena; only :meth:`clear` returns to key space.
        """
        self._coo()
        pending_keys, bits = self._pend.views()
        pend = arena.PendingArena(3)
        pend.append(*coords.unpack(pending_keys, self._spec), bits)
        self._keys, self._pend, self._spec = None, pend, None

    # -- alternate constructors ----------------------------------------- #

    @classmethod
    def sparse(cls, dtype="fp64", nrows: int = MAX_DIM, ncols: int = MAX_DIM, *, name: str = "") -> "Matrix":
        """Create an empty hypersparse matrix (alias of the constructor)."""
        return cls(dtype, nrows, ncols, name=name)

    @classmethod
    def from_coo(
        cls,
        rows,
        cols,
        values=1,
        *,
        dtype=None,
        nrows: int = MAX_DIM,
        ncols: int = MAX_DIM,
        dup_op: Optional[BinaryOp] = None,
        name: str = "",
    ) -> "Matrix":
        """Build a matrix from coordinate triples.

        ``values`` may be an array (one per coordinate) or a scalar broadcast
        to every coordinate.  Duplicate coordinates are combined with
        ``dup_op`` (default ``plus``).
        """
        r = K.as_index_array(rows, "rows")
        c = K.as_index_array(cols, "cols")
        if np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0):
            v = np.full(r.size, values)
        else:
            v = np.asarray(values)
        if dtype is not None:
            v = v.astype(lookup_dtype(dtype).np_type)
        out = cls(v.dtype if dtype is None else dtype, nrows, ncols, name=name)
        out.build(r, c, v, dup_op=dup_op)
        return out

    def dup(self, *, dtype=None, name: str = "") -> "Matrix":
        """Deep copy of this matrix (optionally cast to ``dtype``)."""
        self._wait()
        target = lookup_dtype(dtype) if dtype is not None else self._dtype
        out = Matrix(target, self._nrows, self._ncols, name=name or self.name)
        vals = self._vals.astype(target.np_type, copy=True)
        if self._keys is not None:
            out._set_keys(self._keys.copy(), vals)
        else:
            out._set_coo(self._rows.copy(), self._cols.copy(), vals)
        return out

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def nrows(self) -> int:
        """Number of rows in the logical (hypersparse) dimension."""
        return self._nrows

    @property
    def ncols(self) -> int:
        """Number of columns in the logical (hypersparse) dimension."""
        return self._ncols

    @property
    def shape(self) -> Tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self._nrows, self._ncols)

    @property
    def dtype(self) -> DataType:
        """The GraphBLAS scalar type of stored values."""
        return self._dtype

    @property
    def nvals(self) -> int:
        """Number of stored entries.  Forces completion of pending updates."""
        self._wait()
        return int(self._vals.size)

    #: alias matching the sparse-matrix convention
    @property
    def nnz(self) -> int:
        """Alias of :attr:`nvals`."""
        return self.nvals

    @property
    def nvals_upper_bound(self) -> int:
        """Stored entries plus pending (not yet merged) tuples.

        Unlike :attr:`nvals` this does not force a merge, so it is O(1); the
        hierarchical cascade uses it to decide cheaply when a layer may need
        flushing.
        """
        return int(self._vals.size) + self._pend.used

    @property
    def has_pending(self) -> bool:
        """True when scalar insertions are buffered but not yet merged."""
        return self._pend.used > 0

    def pending_window(self) -> Tuple[np.ndarray, ...]:
        """Read-only views of the pending window, in arrival order.

        ``(keys, value bits)`` in key space (keys under :attr:`key_spec`),
        ``(rows, cols, value bits)`` once demoted; values are raw bits of
        the matrix dtype.  The views last until the next append, flush or
        reset; a *position* in the window lasts until the next flush or
        reset (appends extend the window, demotion keeps its order).
        """
        views = self._pend.views()
        for view in views:
            view.flags.writeable = False
        return views

    @property
    def memory_breakdown(self) -> dict:
        """Resident bytes by role: stored arrays vs pending used/capacity.

        The pending arena preallocates geometrically, so its resident
        footprint (``pending_capacity_bytes``) can exceed the live data
        (``pending_used_bytes``).
        """
        coordinate_bytes = 0 if self._keys is None else self._keys.nbytes
        if self._rc is not None:
            coordinate_bytes += self._rc[0].nbytes + self._rc[1].nbytes
        return {
            "stored_bytes": int(coordinate_bytes + self._vals.nbytes),
            "pending_used_bytes": int(self._pend.used_bytes),
            "pending_capacity_bytes": int(self._pend.capacity_bytes),
        }

    @property
    def memory_usage(self) -> int:
        """Approximate resident bytes: stored arrays plus pending *capacity*."""
        b = self.memory_breakdown
        return b["stored_bytes"] + b["pending_capacity_bytes"]

    @property
    def T(self) -> "Matrix":
        """Materialised transpose."""
        return self.transpose()

    # ------------------------------------------------------------------ #
    # pending-tuple machinery
    # ------------------------------------------------------------------ #

    def _append_pending(self, keys, rows, cols, values, op: BinaryOp) -> None:
        """Append one validated batch to the pending buffer under operator ``op``.

        ``keys`` are the batch's packed keys from :meth:`pack_batch` (``None``
        on the dual-key store, which appends ``rows``/``cols`` instead).  The
        whole pending buffer shares one combining operator; switching
        operators (e.g. interleaving ``setElement`` replace semantics with a
        lazy ``plus`` build) flushes the buffer first so ordering semantics
        are preserved exactly.  Values are canonicalised to the matrix dtype
        here — as raw bits, so the flush never re-casts; a scalar is a
        one-element column the arena broadcasts — and the arena copies, so
        callers may reuse their batch buffers freely.
        """
        coordinates = (keys,) if keys is not None else (rows, cols)
        if coordinates[0].size == 0:
            return
        if self._pend.used and self._pend_op is not None and self._pend_op is not op:
            self._wait()
        self._pend_op = op
        self._pend.append(*coordinates, arena.value_bits(values, self._dtype.np_type))

    def _keyed(self) -> bool:
        """Whether operations run on the keyed kernels right now."""
        return self._spec is not None and coords.packing_enabled()

    def _merge_keyed(self, keys: np.ndarray, vals: np.ndarray, op: BinaryOp) -> None:
        self._set_keys(
            *K.merge_keys(self._packed(), self._vals, keys, vals, op, self._dtype.np_type)
        )

    def _merge_coo(self, rows, cols, vals, op: BinaryOp) -> None:
        self._set_coo(
            *K.union_merge(
                (self._rows, self._cols, self._vals),
                (rows, cols, vals),
                op,
                out_dtype=self._dtype.np_type,
            )
        )

    def _wait(self) -> None:
        """Merge any pending tuples into the sorted representation.

        Mirrors ``GrB_wait``: pending insertions are sorted (stably, so
        insertion order survives — or, for a ``plus`` window of one exactly
        countable value, by a plain key sort plus run lengths), duplicate
        coordinates are collapsed with the buffer's pending operator, and the
        result is union-merged into the stored entries with the same
        operator.  ``setElement`` buffers under ``second`` (later insertions
        win, matching repeated-store semantics); lazy ``build`` buffers under
        its ``dup_op`` (``plus`` for the streaming-accumulate hot path).  In
        key space the whole flush is two keyed kernel calls and packs
        nothing: the window arrived packed and the stored keys are resident.
        """
        if self._pend.used == 0:
            return
        op = self._pend_op if self._pend_op is not None else binary.second
        *pending, bits = self._pend.views()
        raw = arena.bits_to_values(bits, self._dtype.np_type)
        pr = pc = pk = None
        if self._keyed():
            # The kernel returns fresh arrays, so the arena can be reused.
            pk, pv = K.sort_collapse_keys(pending[0], raw, op)
        else:
            if self._spec is not None:  # reference engine over a keyed window
                pending = coords.unpack(pending[0], self._spec)
            # build_triples passes already-sorted duplicate-free input through
            # unchanged; detach such outputs from the arena before it is reused.
            pr, pc, pv = (
                out.copy() if out is view else out
                for out, view in zip(
                    K.build_triples(*pending, raw, op), (*pending, raw)
                )
            )
        if self.flush_hook is not None:
            self.flush_hook(pr, pc, pv, pk, None if pk is None else self._spec)
        self._pend.reset()
        self._pend_op = None
        if pk is not None:
            self._merge_keyed(pk, pv, op)
        else:
            self._merge_coo(pr, pc, pv, op)

    def wait(self) -> "Matrix":
        """Public ``GrB_wait`` equivalent; returns ``self`` for chaining."""
        self._wait()
        return self

    def pack_batch(self, rows: np.ndarray, cols: np.ndarray) -> Optional[np.ndarray]:
        """Validate a coordinate batch and pack it under this matrix's key spec.

        Returns the batch's packed ``uint64`` keys — what :meth:`build`
        accepts as ``keys=`` — or ``None`` when the matrix keeps the dual-key
        store.  Out-of-range coordinates raise; an in-range coordinate that
        does not fit the key spec (possible only for shapes too large to
        have a 64-bit split) demotes the matrix *first*, so a key is never
        built from a coordinate it cannot represent.
        """
        if rows.size != cols.size:
            raise DimensionMismatch(
                f"row and column index arrays differ in length ({rows.size} vs {cols.size})"
            )
        if rows.size == 0:
            return None if self._spec is None else np.empty(0, dtype=coords.KEY_DTYPE)
        max_row, max_col = int(rows.max()), int(cols.max())
        if max_row >= self._nrows:
            raise IndexOutOfBound(
                f"row index {max_row} out of range for nrows={self._nrows}"
            )
        if max_col >= self._ncols:
            raise IndexOutOfBound(
                f"column index {max_col} out of range for ncols={self._ncols}"
            )
        if self._spec is not None and not self._fits(max_row, max_col):
            self._demote()
        return None if self._spec is None else coords.pack(rows, cols, self._spec)

    def check_keys(self, keys: np.ndarray) -> None:
        """Validate keys packed elsewhere under this matrix's shape split.

        The bounds check :meth:`pack_batch` does on coordinates, for callers
        that received keys off a wire.  Free when the shape fills its split
        exactly (the IPv4 :math:`2^{32} \\times 2^{32}` case: every key is
        in range).
        """
        spec = coords.shape_split(self._nrows, self._ncols)
        if spec is None or spec != self._spec:
            raise InvalidValue(
                f"a {self._nrows}x{self._ncols} matrix has no packed-key form"
            )
        if keys.size == 0:
            return
        if self._nrows <= spec.max_row and int(keys.max()) >> spec.col_bits >= self._nrows:
            raise IndexOutOfBound(f"packed key row out of range for nrows={self._nrows}")
        if self._ncols <= spec.max_col and int((keys & spec.col_mask).max()) >= self._ncols:
            raise IndexOutOfBound(f"packed key column out of range for ncols={self._ncols}")

    # ------------------------------------------------------------------ #
    # element and bulk updates
    # ------------------------------------------------------------------ #

    def build(
        self,
        rows,
        cols,
        values=1,
        *,
        dup_op: Optional[BinaryOp] = None,
        clear: bool = False,
        lazy: bool = False,
        keys: Optional[np.ndarray] = None,
    ) -> "Matrix":
        """Insert a batch of coordinate triples.

        Unlike the strict C API (which requires an empty output), ``build`` on a
        non-empty matrix merges the new entries with ``dup_op`` (default
        ``plus``), which is exactly the streaming-update usage of the paper.
        Set ``clear=True`` for the strict replace-all behaviour.

        With ``lazy=True`` the batch is packed once and copied into the
        pending buffer in O(n) — a scalar ``values`` is a fill, never an
        ``np.full`` — and the sort + duplicate-collapse + merge is deferred
        until the next :meth:`wait` (or any operation that forces one).  This
        is the streaming-insert hot path the hierarchical cascade rides:
        almost every batch becomes a plain append, and the deferred work is
        amortised over many batches.  The logical result is identical to the
        eager path for any associative ``dup_op`` because the pending sort
        preserves insertion order within equal coordinates (or proves it
        irrelevant); deferral would regroup batches under a non-associative
        ``dup_op``, so those ignore ``lazy`` and run eagerly.

        ``keys`` hands in the batch already validated and packed by
        :meth:`pack_batch` (or checked by :meth:`check_keys`); ``rows`` and
        ``cols`` are then ignored and may be ``None``.
        """
        if clear:
            self.clear()
        r = c = None
        if keys is None:
            r = K.as_index_array(rows, "rows")
            c = K.as_index_array(cols, "cols")
            keys = self.pack_batch(r, c)
        n = keys.size if keys is not None else r.size
        scalar = np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0)
        v = values if scalar else np.asarray(values).astype(self._dtype.np_type, copy=False)
        if not scalar and v.size != n:
            raise DimensionMismatch(
                f"values length {v.size} does not match index length {n}"
            )
        if dup_op is None:
            dup_op = binary.plus
        if lazy and dup_op.associative:
            self._append_pending(keys, r, c, v, dup_op)
            return self
        self._wait()
        if scalar:
            v = np.full(n, values, dtype=self._dtype.np_type)
        if keys is not None and self._keyed():
            self._merge_keyed(*K.sort_collapse_keys(keys, v, dup_op), dup_op)
        else:
            if r is None:
                r, c = coords.unpack(keys, self._spec)
            self._merge_coo(*K.build_triples(r, c, v, dup_op), dup_op)
        return self

    def setElement(self, row: int, col: int, value) -> None:
        """Set a single entry (buffered; merged lazily like SuiteSparse pending tuples)."""
        r = K.as_index_array([row], "row")
        c = K.as_index_array([col], "col")
        self._append_pending(self.pack_batch(r, c), r, c, value, binary.second)

    __setitem_scalar__ = setElement

    def _find(self, row: int, col: int) -> int:
        """Position of one stored coordinate, or -1 (forces pending merges)."""
        self._wait()
        r = K.as_index_array([row], "row")
        c = K.as_index_array([col], "col")
        if self._keys is None:
            return int(K.search_sorted_coo(self._rows, self._cols, r, c)[0])
        if not self._vals.size or not self._fits(r[0], c[0]):
            return -1
        key = coords.pack(r, c, self._spec)[0]
        pos = int(np.searchsorted(self._keys, key))
        return pos if pos < self._keys.size and self._keys[pos] == key else -1

    def extractElement(self, row: int, col: int, default=None):
        """Read a single entry; returns ``default`` when the entry is not stored."""
        pos = self._find(row, col)
        if pos < 0:
            return default
        return self._vals[pos].item()

    get = extractElement

    def clear(self) -> "Matrix":
        """Remove every stored entry (dimensions and type are retained).

        Releases the pending arena's storage and returns a demoted matrix to
        key space.
        """
        self._enter_key_space()
        return self

    def reset(self) -> "Matrix":
        """Remove every stored and pending entry but keep the pending capacity.

        For owners that empty a matrix only to refill it — the hierarchical
        cascade empties layer *i* after every merge into layer *i + 1* — so
        the next window appends into storage that is already resident
        instead of restarting the arena's growth ladder.
        """
        if self._spec is None:
            return self.clear()
        self._set_keys(
            np.empty(0, dtype=coords.KEY_DTYPE), np.empty(0, dtype=self._dtype.np_type)
        )
        self._pend.reset()
        self._pend_op = None
        return self

    def resize(self, nrows: int, ncols: int) -> "Matrix":
        """Change the logical dimensions, dropping entries that fall outside."""
        nrows = _check_dim(nrows, "nrows")
        ncols = _check_dim(ncols, "ncols")
        self._wait()
        rows, cols = self._coo()
        keep = np.ones(rows.size, dtype=bool)
        if nrows < MAX_DIM:
            keep &= rows < np.uint64(nrows)
        if ncols < MAX_DIM:
            keep &= cols < np.uint64(ncols)
        vals = self._vals[keep]
        self._nrows = nrows
        self._ncols = ncols
        self._enter_key_space()  # the key spec follows the shape
        self._set_coo(rows[keep], cols[keep], vals)
        return self

    def update(self, other: "Matrix", accum: Optional[BinaryOp] = None) -> "Matrix":
        """In-place merge of ``other`` into ``self`` (``self(accum) << other``).

        This is the hierarchical cascade's workhorse: ``A_{i+1}.update(A_i)``
        performs ``A_{i+1} += A_i`` using the GraphBLAS ``plus`` accumulator by
        default.  Two matrices in the same key space merge key-to-key with no
        pack or unpack (:func:`~repro.graphblas._kernels.merge_keys`).
        """
        if accum is None:
            accum = binary.plus
        if other._nrows != self._nrows or other._ncols != self._ncols:
            raise DimensionMismatch(
                f"update requires equal shapes, got {self.shape} and {other.shape}"
            )
        self._wait()
        other._wait()
        if other._vals.size == 0:
            return self
        if self._keyed() and other._spec == self._spec:
            self._merge_keyed(other._packed(), other._vals, accum)
        else:
            self._merge_coo(other._rows, other._cols, other._vals, accum)
        return self

    def extract_tuples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, values)`` copies of all stored entries."""
        self._wait()
        if self._rc is None:  # unpacking already yields fresh arrays
            return (*coords.unpack(self._keys, self._spec), self._vals.copy())
        return self._rows.copy(), self._cols.copy(), self._vals.copy()

    to_coo = extract_tuples

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

    def ewise_add(
        self,
        other: "Matrix",
        op: Optional[Union[BinaryOp, Monoid, str]] = None,
    ) -> "Matrix":
        """Element-wise union: entries of either operand, combined where both exist."""
        op = self._coerce_op(op, binary.plus)
        if other._nrows != self._nrows or other._ncols != self._ncols:
            raise DimensionMismatch(
                f"eWiseAdd requires equal shapes, got {self.shape} and {other.shape}"
            )
        self._wait()
        other._wait()
        out_type = op.output_type(self._dtype, other._dtype)
        out = Matrix(out_type, self._nrows, self._ncols)
        r, c, v = K.union_merge(
            (self._rows, self._cols, self._vals),
            (other._rows, other._cols, other._vals),
            op,
            out_dtype=out_type.np_type,
        )
        out._set_coo(r, c, v.astype(out_type.np_type, copy=False))
        return out

    def ewise_mult(
        self,
        other: "Matrix",
        op: Optional[Union[BinaryOp, Monoid, str]] = None,
    ) -> "Matrix":
        """Element-wise intersection: only coordinates present in both operands."""
        op = self._coerce_op(op, binary.times)
        if other._nrows != self._nrows or other._ncols != self._ncols:
            raise DimensionMismatch(
                f"eWiseMult requires equal shapes, got {self.shape} and {other.shape}"
            )
        self._wait()
        other._wait()
        out_type = op.output_type(self._dtype, other._dtype)
        out = Matrix(out_type, self._nrows, self._ncols)
        r, c, v = K.intersect_merge(
            (self._rows, self._cols, self._vals),
            (other._rows, other._cols, other._vals),
            op,
            out_dtype=out_type.np_type,
        )
        out._set_coo(r, c, v.astype(out_type.np_type, copy=False))
        return out

    # Operator sugar ----------------------------------------------------- #

    def __add__(self, other: "Matrix") -> "Matrix":
        return self.ewise_add(other, binary.plus)

    def __iadd__(self, other: "Matrix") -> "Matrix":
        return self.update(other, binary.plus)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.ewise_mult(other, binary.times)
        return self.apply(binary.times, right=other)

    def __rmul__(self, other):
        return self.apply(binary.times, left=other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self.ewise_add(other.apply("ainv"), binary.plus)

    def __neg__(self) -> "Matrix":
        return self.apply("ainv")

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #

    def reduce_rowwise(self, op: Optional[Union[Monoid, str]] = None):
        """Reduce each row to a scalar, returning a sparse Vector of length nrows."""
        from .vector import Vector

        m = monoid[op] if isinstance(op, str) else (op or monoid.plus)
        self._wait()
        out = Vector(self._dtype, self._nrows)
        if self._rows.size == 0:
            return out
        starts = np.flatnonzero(
            np.concatenate(([True], self._rows[1:] != self._rows[:-1]))
        )
        out._indices = self._rows[starts]
        out._vals = m.reduce_groups(self._vals, starts).astype(
            self._dtype.np_type, copy=False
        )
        return out

    def reduce_columnwise(self, op: Optional[Union[Monoid, str]] = None):
        """Reduce each column to a scalar, returning a sparse Vector of length ncols."""
        return self.transpose().reduce_rowwise(op)

    def reduce_scalar(self, op: Optional[Union[Monoid, str]] = None):
        """Reduce every stored value to a single scalar (monoid identity if empty)."""
        m = monoid[op] if isinstance(op, str) else (op or monoid.plus)
        self._wait()
        return m.reduce(self._vals, dtype=self._dtype)

    # ------------------------------------------------------------------ #
    # apply / extract / transpose
    # ------------------------------------------------------------------ #

    def apply(self, op, *, left=None, right=None) -> "Matrix":
        """Apply a unary operator (or a binary operator bound to a scalar) to every value."""
        from .unaryop import UnaryOp, unary as unary_ns

        self._wait()
        if isinstance(op, str):
            op = unary_ns[op] if op in unary_ns else binary[op]
        if isinstance(op, UnaryOp):
            out_type = op.output_type(self._dtype)
            new_vals = op(self._vals)
        else:  # BinaryOp bound to a scalar on one side
            if (left is None) == (right is None):
                raise InvalidValue(
                    "binary apply requires exactly one of left= or right="
                )
            out_type = op.output_type(self._dtype, self._dtype)
            if left is not None:
                new_vals = op(np.full(self._vals.size, left), self._vals)
            else:
                new_vals = op(self._vals, np.full(self._vals.size, right))
        out = Matrix(out_type, self._nrows, self._ncols)
        out._set_coo(
            self._rows.copy(),
            self._cols.copy(),
            np.asarray(new_vals).astype(out_type.np_type, copy=False),
        )
        return out

    @staticmethod
    def _selection_occurrences(sel: np.ndarray, coords: np.ndarray):
        """Locate every occurrence of each coordinate inside a selection list.

        Returns ``(positions, lo, counts)``: ``positions`` is the argsort of
        ``sel`` (so ``positions[lo[k] + i]`` is the i-th occurrence of
        ``coords[k]`` within ``sel``) and ``counts[k]`` the occurrence count.
        ``coords`` must already be filtered to members of ``sel``.
        """
        positions = np.argsort(sel, kind="stable")
        sorted_sel = sel[positions]
        lo = np.searchsorted(sorted_sel, coords, side="left")
        hi = np.searchsorted(sorted_sel, coords, side="right")
        return positions, lo, (hi - lo).astype(np.int64)

    def extract(self, rows=_ALL, cols=_ALL, *, reindex: bool = True) -> "Matrix":
        """Extract the submatrix at the given row/column index lists.

        With ``reindex=True`` (GraphBLAS semantics) output coordinates are the
        positions within the supplied index lists, and a duplicated selection
        index replicates the selected row/column once per occurrence — exactly
        ``out[i, j] = A[rows[i], cols[j]]``, so ``A.extract([1, 1], [1])`` has
        two entries.  With ``reindex=False`` the original coordinates are
        preserved (useful for traffic-matrix slicing) and the selection lists
        act as sets: duplicates cannot replicate entries because replicated
        entries would collide on the same coordinate.
        """
        self._wait()
        row_sel = None if rows is _ALL else K.as_index_array(rows, "rows")
        col_sel = None if cols is _ALL else K.as_index_array(cols, "cols")

        # Membership of each stored coordinate in the selection lists: the
        # fast engine sorts each (small) selection once and binary-searches
        # the stored column against it; the reference engine keeps np.isin
        # (same toggle as the packed kernels, for two-engine conformance).
        fast_join = coords.packing_enabled()
        keep = np.ones(self._rows.size, dtype=bool)
        if row_sel is not None:
            keep &= (
                K.sorted_membership(self._rows, row_sel)
                if fast_join
                else np.isin(self._rows, row_sel)
            )
        if col_sel is not None:
            keep &= (
                K.sorted_membership(self._cols, col_sel)
                if fast_join
                else np.isin(self._cols, col_sel)
            )
        r, c, v = self._rows[keep], self._cols[keep], self._vals[keep]

        if not reindex:
            out = Matrix(self._dtype, self._nrows, self._ncols)
            out._set_coo(r, c, v)
            return out

        out_nrows = self._nrows if row_sel is None else max(int(row_sel.size), 1)
        out_ncols = self._ncols if col_sel is None else max(int(col_sel.size), 1)
        if r.size:
            ones = np.ones(r.size, dtype=np.int64)
            if row_sel is not None:
                r_pos, r_lo, r_cnt = self._selection_occurrences(row_sel, r)
            else:
                r_cnt = ones
            if col_sel is not None:
                c_pos, c_lo, c_cnt = self._selection_occurrences(col_sel, c)
            else:
                c_cnt = ones
            total = r_cnt * c_cnt
            if total.sum() == r.size:
                # Duplicate-free selections: each entry maps to one position.
                if row_sel is not None:
                    r = r_pos[r_lo].astype(K.INDEX_DTYPE)
                if col_sel is not None:
                    c = c_pos[c_lo].astype(K.INDEX_DTYPE)
            else:
                # Replicate each entry once per (row occurrence, col occurrence)
                # pair: entry k appears r_cnt[k] * c_cnt[k] times.
                m = int(total.sum())
                rep = np.repeat(np.arange(r.size, dtype=np.intp), total)
                prefix = np.concatenate(([0], np.cumsum(total)[:-1]))
                offs = np.arange(m, dtype=np.int64) - np.repeat(prefix, total)
                cc = np.repeat(c_cnt, total)
                row_occ = offs // cc
                col_occ = offs - row_occ * cc
                if row_sel is not None:
                    r = r_pos[r_lo[rep] + row_occ].astype(K.INDEX_DTYPE)
                else:
                    r = r[rep]
                if col_sel is not None:
                    c = c_pos[c_lo[rep] + col_occ].astype(K.INDEX_DTYPE)
                else:
                    c = c[rep]
                v = v[rep]
        out = Matrix(self._dtype, out_nrows, out_ncols)
        r, c, v = K.sort_coo(r, c, v)
        out._set_coo(r, c, v)
        return out

    def transpose(self) -> "Matrix":
        """Materialised transpose (rows and columns exchanged, re-sorted)."""
        self._wait()
        out = Matrix(self._dtype, self._ncols, self._nrows)
        if self._rows.size:
            r, c, v = K.sort_coo(self._cols.copy(), self._rows.copy(), self._vals.copy())
            out._set_coo(r, c, v)
        return out

    # ------------------------------------------------------------------ #
    # conversions and comparisons
    # ------------------------------------------------------------------ #

    def isequal(self, other: "Matrix", *, check_dtype: bool = False) -> bool:
        """Exact equality of pattern and values (and optionally dtype)."""
        if not isinstance(other, Matrix):
            return False
        if self.shape != other.shape:
            return False
        if check_dtype and self._dtype is not other._dtype:
            return False
        self._wait()
        other._wait()
        return (
            self._rows.size == other._rows.size
            and bool(np.array_equal(self._rows, other._rows))
            and bool(np.array_equal(self._cols, other._cols))
            and bool(np.array_equal(self._vals, other._vals))
        )

    def isclose(self, other: "Matrix", *, rel_tol: float = 1e-7, abs_tol: float = 0.0) -> bool:
        """Pattern equality with approximately-equal values."""
        if not isinstance(other, Matrix) or self.shape != other.shape:
            return False
        self._wait()
        other._wait()
        if self._rows.size != other._rows.size:
            return False
        if not (
            np.array_equal(self._rows, other._rows)
            and np.array_equal(self._cols, other._cols)
        ):
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
    # python protocol methods
    # ------------------------------------------------------------------ #

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            i, j = key
            if np.isscalar(i) and np.isscalar(j):
                return self.extractElement(int(i), int(j))
            rows = _ALL if (isinstance(i, slice) and i == slice(None)) else i
            cols = _ALL if (isinstance(j, slice) and j == slice(None)) else j
            return self.extract(rows, cols)
        raise TypeError("Matrix indexing requires a (row, col) pair")

    def __setitem__(self, key, value):
        if isinstance(key, tuple) and len(key) == 2 and np.isscalar(key[0]) and np.isscalar(key[1]):
            self.setElement(int(key[0]), int(key[1]), value)
            return
        raise TypeError("Matrix item assignment requires scalar (row, col) indices")

    def __contains__(self, key) -> bool:
        if isinstance(key, tuple) and len(key) == 2:
            return self.extractElement(int(key[0]), int(key[1])) is not None
        return False

    def __iter__(self) -> Iterator[Tuple[int, int, object]]:
        self._wait()
        for i in range(self._rows.size):
            yield int(self._rows[i]), int(self._cols[i]), self._vals[i].item()

    def __bool__(self) -> bool:
        return self.nvals > 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Matrix{label} {self._nrows}x{self._ncols} {self._dtype.name}, "
            f"nvals={self.nvals_upper_bound}{'+' if self.has_pending else ''}>"
        )
