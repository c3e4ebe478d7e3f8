"""Low-level NumPy kernels for hypersparse (sorted-COO) matrices.

Every kernel operates on parallel ``(rows, cols, vals)`` arrays where the
coordinates are stored as ``uint64`` (so that 2^64 x 2^64 IPv6 traffic matrices
never overflow) and the tuples are sorted lexicographically by ``(row, col)``
with no duplicate coordinates.  This is the "hypersparse" invariant: storage is
proportional to the number of stored entries only, never to the matrix
dimensions.

Performance architecture
------------------------
Each kernel runs on one of two interchangeable engines:

* **Packed engine** — when the observed coordinates fit a 64-bit split (see
  :mod:`repro.graphblas.coords`), ``(row, col)`` pairs are packed into single
  ``uint64`` sort keys and the work runs on two *keyed* kernels that never
  see rows or columns: :func:`sort_collapse_keys` (one key sort + duplicate
  collapse; a ``plus`` window whose values all carry one exactly-countable
  bit pattern collapses with ``np.sort`` + run lengths instead of a stable
  argsort) and :func:`merge_keys` (a union whose cost follows its inputs:
  a small operand is binary-searched into a much larger one, operands of
  comparable size merge as two sorted runs).  ``Matrix``/``Vector`` and the
  reduction tracker keep
  their data in key space and call these directly; the triple-shaped
  :func:`build_triples`/:func:`union_merge` wrap them (pack → kernel →
  unpack).  Membership/point queries are one binary search per batch.  This
  is the hot path for the paper's IPv4 :math:`2^{32} \\times 2^{32}`
  traffic matrices and anything smaller.
* **Lexsort fallback** — full 64-bit IPv6 coordinate sets keep the original
  dual-key ``np.lexsort`` paths.  The two engines are bit-identical in output
  (property-tested), so callers never need to know which one ran.

The kernels are deliberately free of Python-level loops on the hot paths
(sorting, duplicate collapse, union/intersection merges, batched point
queries) per the vectorisation guidance in the HPC-Python guides; the only
loop that remains is the fallback for non-ufunc duplicate operators.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from . import coords
from .binaryop import BinaryOp, binary
from .errors import InvalidIndex

__all__ = [
    "INDEX_DTYPE",
    "as_index_array",
    "sort_coo",
    "build_triples",
    "collapse_duplicates",
    "sort_collapse_keys",
    "merge_keys",
    "union_merge",
    "intersect_merge",
    "sorted_membership",
    "search_sorted_coo",
    "group_starts",
    "key_group_starts",
]

#: dtype used for row/column coordinates throughout the library.
INDEX_DTYPE = np.dtype(np.uint64)

Triple = Tuple[np.ndarray, np.ndarray, np.ndarray]


def as_index_array(idx, name: str = "index") -> np.ndarray:
    """Validate and convert ``idx`` to a 1-D uint64 coordinate array.

    Negative values and non-integer arrays raise :class:`InvalidIndex`.
    """
    if isinstance(idx, np.ndarray) and idx.dtype == INDEX_DTYPE and idx.ndim == 1:
        # Hot path: streaming workloads hand us ready-made uint64 arrays.
        return idx
    if not isinstance(idx, np.ndarray) and (
        not hasattr(idx, "__len__")
        or len(idx) == 0
        or isinstance(idx[0], (int, np.integer))
    ):
        # Python sequences of large ints (> 2**63) would be lossily promoted to
        # float64 by plain asarray (NumPy 2.x); convert straight to uint64 so
        # full 64-bit IPv6 coordinates survive exactly.
        try:
            arr = np.asarray(idx, dtype=INDEX_DTYPE)
        except (OverflowError, ValueError, TypeError):
            arr = np.asarray(idx)
        else:
            if arr.ndim == 0:
                arr = arr.reshape(1)
            if arr.ndim != 1:
                raise InvalidIndex(
                    f"{name} must be one-dimensional, got shape {arr.shape}"
                )
            return arr
    else:
        arr = np.asarray(idx)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InvalidIndex(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.dtype == INDEX_DTYPE:
        return arr
    if arr.dtype.kind == "f":
        if not np.all(arr == np.floor(arr)):
            raise InvalidIndex(f"{name} contains non-integer values")
        arr = arr.astype(np.int64)
    if arr.dtype.kind == "i":
        if arr.size and arr.min() < 0:
            raise InvalidIndex(f"{name} contains negative values")
        return arr.astype(INDEX_DTYPE)
    if arr.dtype.kind == "u":
        return arr.astype(INDEX_DTYPE)
    if arr.dtype.kind == "b":
        return arr.astype(INDEX_DTYPE)
    raise InvalidIndex(f"{name} has non-integer dtype {arr.dtype}")


# --------------------------------------------------------------------------- #
# sorting and duplicate collapse
# --------------------------------------------------------------------------- #


def _lexsort_coo(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> Triple:
    """Dual-key fallback sort (strictly-sorted input passes through)."""
    if np.all(rows[1:] >= rows[:-1]):
        same_row = rows[1:] == rows[:-1]
        if not np.any(same_row) or np.all(cols[1:][same_row] > cols[:-1][same_row]):
            return rows, cols, vals
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def sort_coo(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> Triple:
    """Sort COO triples lexicographically by (row, col).

    Returns new arrays; the inputs are not modified.  Already-sorted input is
    detected and returned without copying work beyond the monotonicity check.
    Stable for duplicate coordinates (insertion order is preserved), which the
    ``first``/``second`` duplicate operators rely on.
    """
    if rows.size <= 1:
        return rows, cols, vals
    spec = coords.plan_pack((rows, cols))
    if spec is None:
        return _lexsort_coo(rows, cols, vals)
    keys = coords.pack(rows, cols, spec)
    if np.all(keys[1:] > keys[:-1]):  # already strictly sorted: pass through
        return rows, cols, vals
    order = np.argsort(keys, kind="stable")
    return rows[order], cols[order], vals[order]


def group_starts(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Start offsets of each run of identical (row, col) pairs in sorted COO."""
    if rows.size == 0:
        return np.empty(0, dtype=np.intp)
    new_group = np.empty(rows.size, dtype=bool)
    new_group[0] = True
    np.not_equal(rows[1:], rows[:-1], out=new_group[1:])
    np.logical_or(new_group[1:], cols[1:] != cols[:-1], out=new_group[1:])
    return np.flatnonzero(new_group)


def _key_group_starts(keys: np.ndarray) -> np.ndarray:
    """Start offsets of runs of identical packed keys."""
    new_group = np.empty(keys.size, dtype=bool)
    new_group[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
    return np.flatnonzero(new_group)


#: Public alias: single-key group starts for callers that sort in packed key
#: space themselves (the tracker catch-up).
key_group_starts = _key_group_starts


def _reduce_groups(
    vals: np.ndarray, starts: np.ndarray, total: int, dup_op: BinaryOp
) -> np.ndarray:
    """Reduce contiguous value groups delimited by ``starts`` with ``dup_op``."""
    if dup_op.name == "first":
        return vals[starts]
    if dup_op.name == "second":
        ends = np.append(starts[1:], total) - 1
        return vals[ends]
    if dup_op.ufunc is not None:
        out_vals = dup_op.ufunc.reduceat(vals, starts)
        if out_vals.dtype != vals.dtype:
            out_vals = out_vals.astype(vals.dtype)
        return out_vals
    # Generic fallback: reduce each group with a Python loop.
    ends = np.append(starts[1:], total)
    out_vals = np.empty(starts.size, dtype=vals.dtype)
    for i in range(starts.size):
        acc = vals[starts[i]]
        for j in range(starts[i] + 1, ends[i]):
            acc = dup_op(acc, vals[j])
        out_vals[i] = acc
    return out_vals


def collapse_duplicates(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    dup_op: Optional[BinaryOp] = None,
) -> Triple:
    """Collapse duplicate coordinates in *sorted* COO triples.

    ``dup_op`` combines duplicate values (default: ``plus``, matching
    ``GrB_Matrix_build``'s most common usage).  The ``second`` operator keeps
    the last value written, ``first`` the first.  ufunc-backed operators use a
    single ``reduceat`` call; everything else falls back to a loop over only
    the duplicated groups.
    """
    if rows.size <= 1:
        return rows, cols, vals
    if dup_op is None:
        dup_op = binary.plus
    starts = group_starts(rows, cols)
    if starts.size == rows.size:  # no duplicates at all
        return rows, cols, vals
    return rows[starts], cols[starts], _reduce_groups(vals, starts, rows.size, dup_op)


def _countable_scalar(vals: np.ndarray):
    """The one value every element of ``vals`` carries, if counting it is exact.

    Returns ``s`` when every element has ``s``'s bit pattern *and*
    ``count * s`` provably equals ``count`` repeated additions of ``s`` for
    any ``count <= vals.size``: ``s`` is a nonzero integer and
    ``vals.size * |s|`` stays below the dtype's exact-integer range
    (``2**53`` for ``fp64``, ``2**24`` for ``fp32``, the type maximum for
    integers), so every partial sum in any grouping is representable.
    Anything unproven returns ``None``.
    """
    dtype = vals.dtype
    if dtype.kind not in "fiu" or dtype.itemsize > 8:
        return None
    bits = vals.view(f"u{dtype.itemsize}")
    if (bits != bits[0]).any():
        return None
    s = vals[0]
    if dtype.kind == "f":
        if not np.isfinite(s) or s != np.rint(s):
            return None
        limit = 2 ** (np.finfo(dtype).nmant + 1)
    else:
        limit = int(np.iinfo(dtype).max)
    return s if 0 < vals.size * abs(int(s)) < limit else None


def sort_collapse_keys(
    keys: np.ndarray, vals: np.ndarray, dup_op: Optional[BinaryOp] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort ``(key, value)`` pairs by key and collapse duplicate keys.

    The keyed build kernel: ``keys`` are packed coordinates (or plain vector
    indices) in arrival order, duplicates combine with ``dup_op`` (default
    ``plus``) in arrival order.  Returns fresh ``(keys, vals)`` arrays —
    sorted, duplicate-free, never views of the inputs, so callers may hand in
    arena views and reuse the arena immediately.

    A ``plus`` window whose values all carry one bit pattern ``s`` (the
    traffic-matrix ``+1`` stream) needs no permutation at all: the keys are
    sorted alone (``np.sort`` on ``uint64`` is SIMD-vectorised; a stable
    ``argsort`` is not) and each run of length ``k`` collapses to ``k * s``.
    That path is taken only when :func:`_countable_scalar` proves the product
    exact; everything else pays the stable argsort.
    """
    if dup_op is None:
        dup_op = binary.plus
    n = keys.size
    if n <= 1:
        return keys.copy(), vals.copy()
    s = _countable_scalar(vals) if dup_op.name == "plus" else None
    if s is not None:
        keys = np.sort(keys)
        starts = _key_group_starts(keys)
        counts = np.diff(starts, append=n).astype(vals.dtype)
        return (keys if starts.size == n else keys[starts]), counts * s
    if np.all(keys[1:] > keys[:-1]):  # already strictly sorted
        return keys.copy(), vals.copy()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    starts = _key_group_starts(keys)
    if starts.size == n:  # duplicate-free
        return keys, vals
    return keys[starts], _reduce_groups(vals, starts, n, dup_op)


def build_triples(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    dup_op: Optional[BinaryOp] = None,
    *,
    with_keys: bool = False,
):
    """Sort raw triples and collapse duplicates in one fused kernel.

    Equivalent to ``collapse_duplicates(*sort_coo(rows, cols, vals), dup_op)``;
    on the packed engine it is ``pack`` → :func:`sort_collapse_keys` →
    ``unpack``.  Callers that already live in key space (``Matrix``,
    ``Vector``, the tracker) call the keyed kernel directly.

    With ``with_keys=True`` the return value is the 5-tuple ``(rows, cols,
    vals, keys, spec)`` where ``keys`` are the packed sort keys of the
    *output* triples under ``spec`` (``None``/``None`` on the lexsort
    fallback or for trivial inputs).
    """
    if rows.size <= 1:
        return (rows, cols, vals, None, None) if with_keys else (rows, cols, vals)
    spec = coords.plan_pack((rows, cols))
    if spec is None:
        rows, cols, vals = _lexsort_coo(rows, cols, vals)
        out = collapse_duplicates(rows, cols, vals, dup_op)
        return (*out, None, None) if with_keys else out
    keys, out_vals = sort_collapse_keys(coords.pack(rows, cols, spec), vals, dup_op)
    out = (*coords.unpack(keys, spec), out_vals)
    return (*out, keys, spec) if with_keys else out


# --------------------------------------------------------------------------- #
# merges
# --------------------------------------------------------------------------- #


def _locate_keys(ka: np.ndarray, kb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Locate each key of ``ka`` in sorted, duplicate-free ``kb``.

    Returns ``(positions, hit)``: ``positions`` are clamped insertion points
    into ``kb`` and ``hit`` marks the ``ka`` entries actually present there.
    ``kb`` must be non-empty.
    """
    idx = np.searchsorted(kb, ka, side="left")
    idx_c = np.minimum(idx, kb.size - 1)
    return idx_c, kb[idx_c] == ka


#: Size ratio above which :func:`merge_keys` searches the small operand into
#: the large one instead of merging the two as sorted runs.  Measured on
#: ``bench``'s ``bulk`` stream: at 1:1 the run merge is 2.3x faster, at 1:14
#: the two are level, at 1:60 the one-sided merge is 2.3x faster.
_ONE_SIDED_RATIO = 8


def _operand_type(op: BinaryOp, va: np.ndarray, vb: np.ndarray, out_dtype) -> Optional[np.dtype]:
    """The type ``op`` must see its operands in, when that is not ``out_dtype``.

    A ``bool_result`` operator (``eq``, ``lt``, ...) compares in the operands'
    common type: casting them to its ``bool`` output first would turn every
    nonzero value into ``True`` before the comparison.  The merges then run
    in that type and cast the merged values to ``out_dtype`` at the end.
    """
    if op.bool_result:
        work = np.promote_types(va.dtype, vb.dtype)
        if work != out_dtype:
            return work
    return None


def merge_keys(
    ka: np.ndarray,
    va: Optional[np.ndarray],
    kb: np.ndarray,
    vb: Optional[np.ndarray],
    op: Optional[BinaryOp] = None,
    out_dtype: Optional[np.dtype] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Union of two sorted, duplicate-free keyed sets (the keyed ``eWiseAdd``).

    Keys present in one operand copy through; keys present in both combine
    as ``op(a_value, b_value)`` (default ``plus``).  Returns fresh ``(keys,
    vals)``.  The cost follows the shape of the inputs: a small operand is
    binary-searched into a much larger one (:func:`_merge_into_large` — a
    stats read merging a small delta, a trickle window meeting a full
    layer), operands of comparable size are merged as two sorted runs
    (:func:`_merge_runs` — a bulk cascade step).

    With ``va`` and ``vb`` both ``None`` the merge is key-only (a sorted-set
    union, always a run merge) and the returned ``vals`` is ``None``.
    """
    if op is None:
        op = binary.plus
    if va is not None:
        if out_dtype is None:
            out_dtype = np.promote_types(va.dtype, vb.dtype)
        work = _operand_type(op, va, vb, out_dtype)
        if work is not None:
            keys, vals = merge_keys(ka, va, kb, vb, op, work)
            return keys, vals.astype(out_dtype)
    if ka.size == 0 or kb.size == 0:
        keys, vals = (kb, vb) if ka.size == 0 else (ka, va)
        return keys.copy(), None if vals is None else vals.astype(out_dtype, copy=True)
    if va is not None and max(ka.size, kb.size) > _ONE_SIDED_RATIO * min(ka.size, kb.size):
        return _merge_into_large(ka, va, kb, vb, op, out_dtype)
    return _merge_runs(ka, va, kb, vb, op, out_dtype)


def _merge_runs(ka, va, kb, vb, op, out_dtype):
    """:func:`merge_keys` for operands of comparable size (and key-only unions).

    The concatenation is two presorted runs, which the stable (timsort)
    sort detects and merges in one O(n) pass — far cheaper than binary
    searches at this size ratio.  Ties keep ``a`` before ``b``, so every
    duplicate pair is ``a``'s entry followed by ``b``'s.
    """
    keys = np.concatenate([ka, kb])
    vals = None
    if va is None:
        keys.sort(kind="stable")
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = np.concatenate(
            [va.astype(out_dtype, copy=False), vb.astype(out_dtype, copy=False)]
        )[order]
    first = np.flatnonzero(keys[1:] == keys[:-1])
    if first.size == 0:
        return keys, vals
    keep = np.ones(keys.size, dtype=bool)
    keep[first + 1] = False
    if vals is None:
        return keys[keep], None
    vals[first] = op(vals[first], vals[first + 1]).astype(out_dtype, copy=False)
    return keys[keep], vals[keep]


def _merge_into_large(ka, va, kb, vb, op, out_dtype):
    """:func:`merge_keys` for one operand much smaller than the other.

    One-sided: the small operand is binary-searched into the large one, its
    misses are inserted and its hits combined in place in a copy of the
    large side's values, so the cost is O(small · log large) searches plus
    one pass over the large side.
    """
    a_small = ka.size < kb.size
    (ks, vs), (kl, vl) = ((ka, va), (kb, vb)) if a_small else ((kb, vb), (ka, va))
    pos = np.searchsorted(kl, ks, side="left")
    missing = kl[np.minimum(pos, kl.size - 1)] != ks
    nmiss = int(np.count_nonzero(missing))
    if nmiss == 0:
        keys, vals, at = kl.copy(), vl.astype(out_dtype, copy=True), pos
    else:
        # Output position of every small-side entry: its insertion point in
        # the large side shifted by the misses inserted before it (for a hit
        # this is where the matching large-side entry lands).
        at = pos + np.cumsum(missing)
        at -= missing
        slots = at[missing]
        keep = np.ones(kl.size + nmiss, dtype=bool)
        keep[slots] = False
        keys = np.empty(keep.size, dtype=kl.dtype)
        keys[keep] = kl
        keys[slots] = ks[missing]
        vals = np.empty(keep.size, dtype=out_dtype)
        vals[keep] = vl
        vals[slots] = vs[missing]
    if nmiss < ks.size:
        hit = ~missing
        at = at[hit]
        small = vs[hit].astype(out_dtype, copy=False)
        combined = op(small, vals[at]) if a_small else op(vals[at], small)
        vals[at] = combined.astype(out_dtype, copy=False)
    return keys, vals


def union_merge(
    a: Triple,
    b: Triple,
    op: Optional[BinaryOp] = None,
    out_dtype: Optional[np.dtype] = None,
) -> Triple:
    """Element-wise union (``eWiseAdd``) of two sorted, duplicate-free COO sets.

    Coordinates present in only one operand copy through unchanged; matching
    coordinates are combined with ``op`` (default ``plus``).  The result is
    sorted and duplicate-free.  On the packed engine this is ``pack`` →
    :func:`merge_keys` → ``unpack``.
    """
    if op is None:
        op = binary.plus
    ra, ca, va = a
    rb, cb, vb = b
    if out_dtype is None:
        out_dtype = np.promote_types(va.dtype, vb.dtype)
    work = _operand_type(op, va, vb, out_dtype)
    if work is not None:
        *coo, vals = union_merge(a, b, op, work)
        return (*coo, vals.astype(out_dtype))
    if ra.size == 0:
        return rb.copy(), cb.copy(), vb.astype(out_dtype, copy=True)
    if rb.size == 0:
        return ra.copy(), ca.copy(), va.astype(out_dtype, copy=True)

    spec = coords.plan_pack((ra, ca), (rb, cb))
    if spec is not None:
        keys, vals = merge_keys(
            coords.pack(ra, ca, spec), va, coords.pack(rb, cb, spec), vb, op, out_dtype
        )
        return (*coords.unpack(keys, spec), vals)

    # Lexsort fallback (full 64-bit coordinate sets).
    rows = np.concatenate([ra, rb])
    cols = np.concatenate([ca, cb])
    # Tag the provenance of each tuple so matched pairs apply op(a_val, b_val)
    # in the correct argument order even after the sort.
    src = np.empty(rows.size, dtype=np.uint8)
    src[: ra.size] = 0
    src[ra.size:] = 1
    vals = np.concatenate(
        [va.astype(out_dtype, copy=False), vb.astype(out_dtype, copy=False)]
    )

    order = np.lexsort((src, cols, rows))
    rows = rows[order]
    cols = cols[order]
    vals = vals[order]

    dup_with_next = np.zeros(rows.size, dtype=bool)
    dup_with_next[:-1] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    if not np.any(dup_with_next):
        return rows, cols, vals

    matched_first = np.flatnonzero(dup_with_next)
    keep = np.ones(rows.size, dtype=bool)
    keep[matched_first + 1] = False
    combined = op(vals[matched_first], vals[matched_first + 1])
    out_vals = vals[keep]
    # Positions of the matched pairs within the kept array.
    kept_positions = np.cumsum(keep) - 1
    out_vals[kept_positions[matched_first]] = combined.astype(out_dtype, copy=False)
    return rows[keep], cols[keep], out_vals


def intersect_merge(
    a: Triple,
    b: Triple,
    op: Optional[BinaryOp] = None,
    out_dtype: Optional[np.dtype] = None,
) -> Triple:
    """Element-wise intersection (``eWiseMult``) of two sorted COO sets.

    Only coordinates present in both operands are retained; values combine via
    ``op`` (default ``times``).
    """
    if op is None:
        op = binary.times
    ra, ca, va = a
    rb, cb, vb = b
    if out_dtype is None:
        out_dtype = np.promote_types(va.dtype, vb.dtype)
    work = _operand_type(op, va, vb, out_dtype)
    if work is not None:
        *coo, vals = intersect_merge(a, b, op, work)
        return (*coo, vals.astype(out_dtype))
    empty = (
        np.empty(0, dtype=INDEX_DTYPE),
        np.empty(0, dtype=INDEX_DTYPE),
        np.empty(0, dtype=out_dtype),
    )
    if ra.size == 0 or rb.size == 0:
        return empty

    spec = coords.plan_pack((ra, ca), (rb, cb))
    if spec is not None:
        ka = coords.pack(ra, ca, spec)
        kb = coords.pack(rb, cb, spec)
        idx_c, hit = _locate_keys(ka, kb)
        if not np.any(hit):
            return empty
        combined = op(
            va[hit].astype(out_dtype, copy=False),
            vb[idx_c[hit]].astype(out_dtype, copy=False),
        ).astype(out_dtype, copy=False)
        if op.bool_result:
            combined = combined.astype(np.bool_)
        return ra[hit], ca[hit], combined

    # Lexsort fallback (full 64-bit coordinate sets).
    rows = np.concatenate([ra, rb])
    cols = np.concatenate([ca, cb])
    src = np.empty(rows.size, dtype=np.uint8)
    src[: ra.size] = 0
    src[ra.size:] = 1
    vals = np.concatenate(
        [va.astype(out_dtype, copy=False), vb.astype(out_dtype, copy=False)]
    )
    order = np.lexsort((src, cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]

    dup_with_next = np.zeros(rows.size, dtype=bool)
    dup_with_next[:-1] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    matched_first = np.flatnonzero(dup_with_next)
    if matched_first.size == 0:
        return empty
    combined = op(vals[matched_first], vals[matched_first + 1]).astype(
        out_dtype, copy=False
    )
    if op.bool_result:
        combined = combined.astype(np.bool_)
    return rows[matched_first], cols[matched_first], combined


# --------------------------------------------------------------------------- #
# membership and point queries
# --------------------------------------------------------------------------- #


def sorted_membership(values: np.ndarray, selection: np.ndarray) -> np.ndarray:
    """Boolean mask of which ``values`` appear in ``selection`` (any order).

    Sorts the (typically small) selection once and binary-searches every
    value against it — O((n + s) log s) with no hash set or per-value scan.
    This is the join underneath the ``extract`` fast path, replacing
    ``np.isin`` over the stored coordinate columns; the reference engine
    (``coords.packing_disabled``) keeps the ``np.isin`` path for the
    two-engine conformance tests.
    """
    if values.size == 0 or selection.size == 0:
        return np.zeros(values.size, dtype=bool)
    sel = np.sort(selection, kind="stable")
    pos = np.searchsorted(sel, values)
    pos = np.minimum(pos, sel.size - 1)
    return sel[pos] == values


def search_sorted_coo(
    rows: np.ndarray,
    cols: np.ndarray,
    query_rows: np.ndarray,
    query_cols: np.ndarray,
) -> np.ndarray:
    """Locate query coordinates in a sorted COO set.

    Returns an int64 array of positions; ``-1`` marks coordinates not present.
    Small query batches (single-element ``extractElement`` calls) use a
    per-query row-slice binary search costing O(q log n) with no O(n) scan of
    the stored set.  Bulk batches are fully vectorised on both engines: the
    packed path is one binary search over the whole query batch, the fallback
    ranks stored tuples and queries in a single merged lexsort — no per-query
    Python loop, so 10k+ point queries cost O((n + q) log (n + q)) total.
    """
    qr = as_index_array(query_rows, "query rows")
    qc = as_index_array(query_cols, "query cols")
    out = np.full(qr.size, -1, dtype=np.int64)
    if rows.size == 0 or qr.size == 0:
        return out

    if qr.size <= 32:
        # Point-query fast path: binary-search each query's row slice, then
        # its column.  Avoids packing/ranking the whole stored set, keeping
        # extractElement at O(log n) per call.
        row_lo = np.searchsorted(rows, qr, side="left")
        row_hi = np.searchsorted(rows, qr, side="right")
        for i in range(qr.size):
            lo, hi = row_lo[i], row_hi[i]
            if lo == hi:
                continue
            j = lo + np.searchsorted(cols[lo:hi], qc[i], side="left")
            if j < hi and cols[j] == qc[i]:
                out[i] = j
        return out

    spec = coords.plan_pack((rows, cols), (qr, qc))
    if spec is not None:
        keys = coords.pack(rows, cols, spec)
        query_keys = coords.pack(qr, qc, spec)
        idx_c, hit = _locate_keys(query_keys, keys)
        out[hit] = idx_c[hit]
        return out

    # Fallback: rank queries against stored tuples via one merged lexsort.
    # With src as the final key, a query sorts after an equal stored tuple, so
    # the count of stored tuples at-or-before each query is its side="right"
    # insertion point; the candidate match is the stored tuple just before it.
    n = rows.size
    all_rows = np.concatenate([rows, qr])
    all_cols = np.concatenate([cols, qc])
    src = np.empty(all_rows.size, dtype=np.uint8)
    src[:n] = 0
    src[n:] = 1
    order = np.lexsort((src, all_cols, all_rows))
    is_query = order >= n
    stored_before = np.cumsum(~is_query)
    query_positions = np.flatnonzero(is_query)
    query_idx = order[query_positions] - n
    j_right = stored_before[query_positions]
    has_candidate = j_right > 0
    candidate = np.where(has_candidate, j_right - 1, 0)
    hit = (
        has_candidate
        & (rows[candidate] == qr[query_idx])
        & (cols[candidate] == qc[query_idx])
    )
    out[query_idx[hit]] = candidate[hit]
    return out
