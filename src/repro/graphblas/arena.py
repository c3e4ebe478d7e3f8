"""Preallocated pending arenas: the append side of deferred ingest.

Every deferred-ingest consumer in the repo — ``Matrix``/``Vector`` pending
buffers, the layer-1 flush path, and the incremental reduction tracker —
used to buffer batches as Python lists of arrays and pay one
``np.concatenate`` per column at every flush.  At streaming rates that is
pure overhead the hardware never asked for: the flush copies every pending
element once just to make it contiguous, *then* sorts it.

:class:`PendingArena` replaces the list-of-chunks idiom with a growable
preallocated column store: ``ncols`` parallel contiguous ``uint64`` columns
with geometric (doubling) growth and explicit ``used``/``capacity``
accounting.  Appending a batch is one bounds check plus one slice-assign
(a memcpy) per column — O(1) amortized per element — and a flush reads the
used prefix directly as zero-copy views, so steady-state flushes perform
**zero** concatenations and at most one growth per capacity doubling.

Values of any GraphBLAS scalar type ride the same ``uint64`` columns as raw
bit patterns (:func:`value_bits` / :func:`bits_to_values`): values are cast
to the container's canonical dtype once, at append time, and their bits are
stored exactly — NaN payloads round-trip untouched, and the flush never
pays the historical full-copy ``astype`` over mixed-dtype chunks.

:class:`PendingChunks` keeps the legacy list-append backend alive behind the
same interface (with its per-take concatenates counted), so benchmarks can
A/B the two backends in the same process and property tests can assert they
are bit-identical.  :func:`make_pending` picks the backend from a module
toggle mirroring :func:`repro.graphblas.coords.packing_disabled`, and
:func:`grow_calls` / :func:`concat_calls` expose monotone instrumentation
counters in the :func:`repro.graphblas.coords.pack_calls` style.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Tuple, Union

import numpy as np

__all__ = [
    "COLUMN_DTYPE",
    "MIN_CAPACITY",
    "PendingArena",
    "PendingChunks",
    "PendingBuffer",
    "make_pending",
    "value_bits",
    "bits_to_values",
    "grow_calls",
    "concat_calls",
    "arena_enabled",
    "set_arena_enabled",
    "arena_disabled",
]

#: dtype of every arena column (indices and raw value bits alike).
COLUMN_DTYPE = np.dtype(np.uint64)

#: Smallest capacity a growth allocates; below this, doubling is all noise
#: (a packet-window batch is ~1k entries, and the first allocation should
#: hold more than one of them).
MIN_CAPACITY = 2048

# Module-level switch so tests and benchmarks can force the legacy
# list-append backend (mirrors coords.packing_disabled).
_ARENA_ENABLED = True

# Monotone instrumentation counters, differenced around hot paths by the
# kernel benchmarks: arena growths (geometric, so O(log n) for n appended
# elements) and legacy-backend take-time concatenates (zero in steady-state
# arena flushes).
_GROW_CALLS = 0
_CONCAT_CALLS = 0


def arena_enabled() -> bool:
    """Whether :func:`make_pending` currently returns preallocated arenas."""
    return _ARENA_ENABLED


def set_arena_enabled(flag: bool) -> None:
    """Globally select the pending backend for newly created containers."""
    global _ARENA_ENABLED
    _ARENA_ENABLED = bool(flag)


@contextlib.contextmanager
def arena_disabled() -> Iterator[None]:
    """Context manager forcing new pending buffers onto the legacy list backend.

    Containers created inside the context keep their list backend for life
    (the backend is chosen at construction), which is exactly what the A/B
    benchmarks and the bit-identity property tests need.
    """
    previous = _ARENA_ENABLED
    set_arena_enabled(False)
    try:
        yield
    finally:
        set_arena_enabled(previous)


def grow_calls() -> int:
    """Total arena growths so far (benchmark/test instrumentation)."""
    return _GROW_CALLS


def concat_calls() -> int:
    """Total legacy-backend take-time concatenates so far."""
    return _CONCAT_CALLS


def _unsigned_view_dtype(dtype: np.dtype) -> np.dtype:
    """The unsigned integer dtype of the same width, for bit reinterpretation."""
    return np.dtype(f"u{dtype.itemsize}")


def value_bits(values: np.ndarray, dtype) -> np.ndarray:
    """Reinterpret values as unsigned bit patterns of the canonical ``dtype``.

    Values are cast to ``dtype`` first (this is where mixed-dtype pending
    chunks converge — once, at append time), then viewed as the unsigned
    integer of the same width.  No numeric conversion touches the bits, so
    float NaN payloads survive exactly.  For inputs already in the canonical
    dtype this is a zero-copy view; arena column assignment zero-extends
    narrower patterns to ``uint64`` without an intermediate array.
    """
    dtype = np.dtype(dtype)
    v = np.ascontiguousarray(values, dtype=dtype)
    return v.view(_unsigned_view_dtype(dtype))


def bits_to_values(bits: np.ndarray, dtype) -> np.ndarray:
    """Invert :func:`value_bits` on a ``uint64`` column slice.

    For 8-byte dtypes this is a zero-copy reinterpreting view of the arena
    storage (callers must fancy-index or copy before the arena is reused);
    narrower dtypes truncate the zero-extension bytes and then reinterpret.
    """
    dtype = np.dtype(dtype)
    u = _unsigned_view_dtype(dtype)
    if u == COLUMN_DTYPE:
        return bits.view(dtype)
    return bits.astype(u).view(dtype)


class PendingArena:
    """A growable preallocated column store for pending tuples.

    ``ncols`` parallel contiguous ``uint64`` columns share one
    ``used``/``capacity`` pair.  :meth:`append` slice-assigns each batch at
    the used offset (one memcpy per column, zero-extending narrower unsigned
    inputs in place) and doubles the capacity geometrically when full, so n
    appended elements cost O(n) copies total and O(log n) allocations.
    :meth:`views` exposes the used prefix as zero-copy slices — the flush
    sorts those directly, concatenating nothing.
    """

    __slots__ = ("_columns", "_used", "_capacity", "grow_count")

    def __init__(self, ncols: int, capacity: int = 0):
        if ncols <= 0:
            raise ValueError(f"ncols must be positive, got {ncols}")
        self._capacity = int(capacity)
        self._columns: List[np.ndarray] = [
            np.empty(self._capacity, dtype=COLUMN_DTYPE) for _ in range(int(ncols))
        ]
        self._used = 0
        #: Growths performed by this instance (module total: :func:`grow_calls`).
        self.grow_count = 0

    @property
    def ncols(self) -> int:
        return len(self._columns)

    @property
    def used(self) -> int:
        """Elements appended since the last :meth:`reset`."""
        return self._used

    @property
    def capacity(self) -> int:
        """Preallocated elements per column (``>= used``)."""
        return self._capacity

    @property
    def used_bytes(self) -> int:
        """Bytes of live pending data across all columns."""
        return self._used * COLUMN_DTYPE.itemsize * len(self._columns)

    @property
    def capacity_bytes(self) -> int:
        """Resident bytes across all columns (what the process actually holds)."""
        return self._capacity * COLUMN_DTYPE.itemsize * len(self._columns)

    def _grow_to(self, needed: int) -> None:
        global _GROW_CALLS
        new_capacity = max(self._capacity, MIN_CAPACITY)
        while new_capacity < needed:
            new_capacity *= 2
        for i, column in enumerate(self._columns):
            fresh = np.empty(new_capacity, dtype=COLUMN_DTYPE)
            fresh[: self._used] = column[: self._used]
            self._columns[i] = fresh
        self._capacity = new_capacity
        self.grow_count += 1
        _GROW_CALLS += 1

    def reserve(self, capacity: int) -> None:
        """Preallocate to at least ``capacity`` elements per column.

        For callers whose fill is bounded and known up front (e.g. a
        deferred store that drains at a fixed interval), one reservation
        replaces the whole geometric growth ladder — and with it every
        in-stream prefix copy.  ``np.empty`` pages are committed on first
        touch, so an oversized reservation costs address space, not
        resident memory, until the arena actually fills.
        """
        if capacity > self._capacity:
            self._grow_to(int(capacity))

    def append(self, *arrays: np.ndarray) -> None:
        """Copy one batch (one array per column) into the arena.

        Arrays must be parallel and of unsigned (or ``uint64``-castable)
        dtype; the slice assignment zero-extends narrower patterns, and a
        length-1 array after the first column is a fill (a scalar value
        broadcast over the batch costs no ``np.full``).  The arena owns its
        storage, so callers may freely reuse or mutate their batch buffers
        afterwards.
        """
        n = int(arrays[0].size)
        if n == 0:
            return
        end = self._used + n
        if end > self._capacity:
            self._grow_to(end)
        for column, a in zip(self._columns, arrays):
            column[self._used : end] = a
        self._used = end

    def views(self) -> Tuple[np.ndarray, ...]:
        """Zero-copy slices of the used prefix, one per column.

        Valid only until the next :meth:`append`/:meth:`reset`; flush code
        must detach (fancy-index or copy) anything it stores.
        """
        return tuple(column[: self._used] for column in self._columns)

    def reset(self) -> None:
        """Forget the contents but keep the capacity (steady-state flush)."""
        self._used = 0

    def clear(self) -> None:
        """Forget the contents and release the storage."""
        self._columns = [np.empty(0, dtype=COLUMN_DTYPE) for _ in self._columns]
        self._capacity = 0
        self._used = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PendingArena ncols={self.ncols} used={self._used}/"
            f"{self._capacity} grows={self.grow_count}>"
        )


class PendingChunks:
    """The legacy list-append pending backend, behind the arena interface.

    Kept as the A/B reference: appends copy each batch into per-column
    Python lists and :meth:`views` concatenates them (counted by
    :func:`concat_calls`) — the exact cost profile the arena removes.
    Capacity equals used; there is no preallocation to report.
    """

    __slots__ = ("_chunks", "_used", "grow_count")

    def __init__(self, ncols: int, capacity: int = 0):
        if ncols <= 0:
            raise ValueError(f"ncols must be positive, got {ncols}")
        self._chunks: List[List[np.ndarray]] = [[] for _ in range(int(ncols))]
        self._used = 0
        self.grow_count = 0  # interface parity; lists never "grow" an arena

    @property
    def ncols(self) -> int:
        return len(self._chunks)

    @property
    def used(self) -> int:
        return self._used

    @property
    def capacity(self) -> int:
        return self._used

    @property
    def used_bytes(self) -> int:
        return self._used * COLUMN_DTYPE.itemsize * len(self._chunks)

    @property
    def capacity_bytes(self) -> int:
        return self.used_bytes

    def reserve(self, capacity: int) -> None:
        """No-op: chunk lists have nothing to preallocate (interface parity)."""

    def append(self, *arrays: np.ndarray) -> None:
        n = int(arrays[0].size)
        if n == 0:
            return
        for chunk_list, a in zip(self._chunks, arrays):
            chunk = np.empty(n, dtype=COLUMN_DTYPE)
            chunk[:] = a  # copies; a length-1 column is a fill, as in the arena
            chunk_list.append(chunk)
        self._used += n

    def views(self) -> Tuple[np.ndarray, ...]:
        global _CONCAT_CALLS
        first = self._chunks[0]
        if not first:
            return tuple(np.empty(0, dtype=COLUMN_DTYPE) for _ in self._chunks)
        if len(first) == 1:
            return tuple(chunk_list[0] for chunk_list in self._chunks)
        _CONCAT_CALLS += 1
        return tuple(np.concatenate(chunk_list) for chunk_list in self._chunks)

    def reset(self) -> None:
        for chunk_list in self._chunks:
            chunk_list.clear()
        self._used = 0

    clear = reset

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PendingChunks ncols={self.ncols} used={self._used}>"


PendingBuffer = Union[PendingArena, PendingChunks]


def make_pending(ncols: int) -> PendingBuffer:
    """Create a pending buffer on the currently selected backend."""
    if _ARENA_ENABLED:
        return PendingArena(ncols)
    return PendingChunks(ncols)
