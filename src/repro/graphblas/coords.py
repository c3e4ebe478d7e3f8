"""Packed-coordinate codec for hypersparse COO kernels.

The kernel engine in :mod:`repro.graphblas._kernels` operates on parallel
``(rows, cols)`` ``uint64`` coordinate arrays sorted lexicographically.  A
two-key ``np.lexsort`` (and the concatenate-then-lexsort merge idiom built on
it) is 2-4x slower than a single-key ``np.sort``/``np.searchsorted``, so this
module provides a *codec* that packs a coordinate pair into one ``uint64``
sort key whenever the coordinates fit a 64-bit split:

``key = (row << col_bits) | col``   with ``row < 2**row_bits``,
``col < 2**col_bits`` and ``row_bits + col_bits == 64``.

Because the row occupies the high bits, packing is strictly monotone with
respect to the lexicographic ``(row, col)`` order for *any* valid split, so a
lex-sorted coordinate set has sorted keys and vice versa.  The canonical
split is 32/32 — the paper's IPv4 :math:`2^{32} \\times 2^{32}` traffic
matrix packs losslessly — but :func:`plan_split` will give the columns only
the bits they need so that, e.g., a :math:`2^{40} \\times 2^{20}` set still
packs.  Full 64-bit IPv6 coordinate sets (where ``bit_length(max_row) +
bit_length(max_col) > 64``) do not fit one key; the kernels then fall back
transparently to the dual-key lexsort paths, which remain bit-identical in
results (property-tested in ``tests/graphblas/test_coords.py``).

Packing is planned *per kernel call* from the observed maximum coordinates —
an O(n) scan that is trivially cheap next to the O(n log n) sort it
accelerates — so no global configuration is required.  For testing,
:func:`packing_disabled` forces every kernel onto the fallback
path.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "KEY_DTYPE",
    "DEFAULT_ROW_BITS",
    "PackedSpec",
    "plan_split",
    "plan_pack",
    "shape_split",
    "pack",
    "unpack",
    "pack_calls",
    "packing_enabled",
    "packing_disabled",
]

#: dtype of packed sort keys.
KEY_DTYPE = np.dtype(np.uint64)

#: Canonical row-bit count: the IPv4 32/32 traffic-matrix split.
DEFAULT_ROW_BITS = 32

_KEY_BITS = 64

# Module-level switch so tests and benchmarks can force the lexsort fallback.
_PACKING_ENABLED = True


class PackedSpec(NamedTuple):
    """A 64-bit coordinate split: ``row_bits`` high bits, ``col_bits`` low bits."""

    row_bits: int
    col_bits: int

    @property
    def col_mask(self) -> np.uint64:
        """Bit mask selecting the column bits of a packed key."""
        return np.uint64((1 << self.col_bits) - 1)

    @property
    def max_row(self) -> int:
        """Largest row coordinate representable under this split."""
        return (1 << self.row_bits) - 1

    @property
    def max_col(self) -> int:
        """Largest column coordinate representable under this split."""
        return (1 << self.col_bits) - 1


#: The canonical IPv4 split, shared so empty coordinate sets plan consistently.
IPV4_SPEC = PackedSpec(DEFAULT_ROW_BITS, _KEY_BITS - DEFAULT_ROW_BITS)


def packing_enabled() -> bool:
    """Whether the packed-key fast path is currently allowed."""
    return _PACKING_ENABLED


@contextlib.contextmanager
def packing_disabled() -> Iterator[None]:
    """Context manager forcing every kernel onto the dual-key lexsort fallback.

    Used by the property-test suite to assert the two paths are bit-identical.
    """
    global _PACKING_ENABLED
    previous = _PACKING_ENABLED
    _PACKING_ENABLED = False
    try:
        yield
    finally:
        _PACKING_ENABLED = previous


def plan_split(
    max_row: int, max_col: int, *, prefer_row_bits: int = DEFAULT_ROW_BITS
) -> Optional[PackedSpec]:
    """Choose a bit split covering ``max_row``/``max_col``, or None if impossible.

    The canonical ``prefer_row_bits`` split (default 32/32, the IPv4 case) is
    used whenever both coordinates fit it; otherwise the columns get exactly
    the bits they need and the rows the remainder.  Returns ``None`` when
    ``bit_length(max_row) + bit_length(max_col) > 64`` (the full IPv6 case) or
    when packing is globally disabled.
    """
    if not _PACKING_ENABLED:
        return None
    row_bits_needed = max(int(max_row).bit_length(), 1)
    col_bits_needed = max(int(max_col).bit_length(), 1)
    if row_bits_needed + col_bits_needed > _KEY_BITS:
        return None
    prefer_col_bits = _KEY_BITS - prefer_row_bits
    if row_bits_needed <= prefer_row_bits and col_bits_needed <= prefer_col_bits:
        return PackedSpec(prefer_row_bits, prefer_col_bits)
    return PackedSpec(_KEY_BITS - col_bits_needed, col_bits_needed)


def plan_pack(*coord_pairs: Tuple[np.ndarray, np.ndarray]) -> Optional[PackedSpec]:
    """Plan one split covering every supplied ``(rows, cols)`` array pair.

    All pairs must use the same split so their keys are mutually comparable
    (the merge/search kernels rely on this).  Returns ``None`` when any pair
    pushes the combined bit requirement past 64 bits or packing is disabled.
    """
    if not _PACKING_ENABLED:
        return None
    max_row = 0
    max_col = 0
    for rows, cols in coord_pairs:
        if rows.size:
            max_row = max(max_row, int(rows.max()))
            max_col = max(max_col, int(cols.max()))
    return plan_split(max_row, max_col)


def shape_split(nrows: int, ncols: int) -> Optional[PackedSpec]:
    """Choose a split covering a fixed ``nrows x ncols`` shape, or None.

    Unlike :func:`plan_split` this ignores the global packing toggle: the
    result is a pure function of the shape.  Shard routing uses it so that the
    shard owning a coordinate never depends on a per-process performance flag
    — the packed kernels may be disabled for benchmarking while the routing
    keys stay byte-for-byte identical.
    """
    row_bits = max(int(nrows - 1).bit_length(), 1)
    col_bits = max(int(ncols - 1).bit_length(), 1)
    if row_bits + col_bits > _KEY_BITS:
        return None
    if row_bits <= DEFAULT_ROW_BITS and col_bits <= _KEY_BITS - DEFAULT_ROW_BITS:
        return IPV4_SPEC
    return PackedSpec(_KEY_BITS - col_bits, col_bits)


# Monotone counter of pack() invocations.  Purely observational: the kernel
# benchmark asserts key-reuse levers (e.g. one _wait flush packing its pending
# triples exactly once) by differencing this counter around the hot path.
_PACK_CALLS = 0


def pack_calls() -> int:
    """Total :func:`pack` invocations so far (benchmark/test instrumentation)."""
    return _PACK_CALLS


def pack(rows: np.ndarray, cols: np.ndarray, spec: PackedSpec) -> np.ndarray:
    """Pack coordinate arrays into single ``uint64`` sort keys.

    The caller is responsible for having planned ``spec`` over these arrays;
    out-of-range coordinates would silently alias, which is why every kernel
    plans before packing.
    """
    global _PACK_CALLS
    _PACK_CALLS += 1
    shift = np.uint64(spec.col_bits)
    return (rows.astype(KEY_DTYPE, copy=False) << shift) | cols.astype(
        KEY_DTYPE, copy=False
    )


def unpack(keys: np.ndarray, spec: PackedSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack`: recover ``(rows, cols)`` from packed keys."""
    shift = np.uint64(spec.col_bits)
    return keys >> shift, keys & spec.col_mask
