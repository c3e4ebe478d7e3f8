"""Preallocated pending arenas: the append side of deferred ingest.

Every deferred-ingest consumer in the repo — ``Matrix``/``Vector`` pending
buffers, the layer-1 flush path, and the incremental reduction tracker —
buffers its batches in a :class:`PendingArena`, a growable preallocated
column store: ``ncols`` parallel contiguous ``uint64`` columns with
geometric (doubling) growth and explicit ``used``/``capacity`` accounting.
Appending a batch is one bounds check plus one slice-assign (a memcpy) per
column — O(1) amortized per element — and a flush reads the used prefix
directly as zero-copy views, so steady-state flushes perform **zero**
concatenations and at most one growth per capacity doubling.

Values of any GraphBLAS scalar type ride the same ``uint64`` columns as raw
bit patterns (:func:`value_bits` / :func:`bits_to_values`): values are cast
to the container's canonical dtype once, at append time, and their bits are
stored exactly — NaN payloads round-trip untouched, and the flush never
pays a full-copy ``astype`` over mixed-dtype batches.

:func:`grow_calls` is a monotone instrumentation counter in the
:func:`repro.graphblas.coords.pack_calls` style.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = [
    "COLUMN_DTYPE",
    "MIN_CAPACITY",
    "PendingArena",
    "value_bits",
    "bits_to_values",
    "grow_calls",
    "concat_calls",
]

#: dtype of every arena column (indices and raw value bits alike).
COLUMN_DTYPE = np.dtype(np.uint64)

#: Smallest capacity a growth allocates; below this, doubling is all noise
#: (a packet-window batch is ~1k entries, and the first allocation should
#: hold more than one of them).
MIN_CAPACITY = 2048

# Monotone instrumentation counter, differenced around hot paths by the
# benchmarks: arena growths (geometric, so O(log n) for n appended elements).
_GROW_CALLS = 0


def grow_calls() -> int:
    """Total arena growths so far (benchmark/test instrumentation)."""
    return _GROW_CALLS


def concat_calls() -> int:
    """Always 0: arena views are zero-copy slices, so no flush concatenates."""
    return 0


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
