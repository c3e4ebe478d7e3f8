"""Incremental shard-side analytics: reduction vectors maintained during ingest.

The paper motivates hypersparse traffic matrices by the analyses they enable —
supernode fluctuation, background models, unobserved-traffic inference — and
every one of those analyses starts from row/column reductions of the traffic
matrix: weighted out-/in-degree (packets sent/received per endpoint), fan-out/
fan-in (distinct counterparties per endpoint), and the total traffic.  Before
this module, each such query forced a full ``materialize()`` — a sort/merge of
every hierarchy layer plus the deferred pending buffer — defeating the entire
deferred-ingest design for monitoring workloads that query stats continuously.

:class:`IncrementalReductions` maintains those reductions *online*:

* Ingest makes no per-batch tracker call, and the tracker keeps no copy of
  the updates.  Layer 1's pending arena is the one store of the current
  window, and the tracker reads it in place — a stats read queues the part
  of the window no earlier read took (an offset, not a copy of the window),
  and layer 1's flush hook hands over the flush's sorted, collapsed window,
  or only the untaken tail when a read got there first.  Queued work waits
  in a segment store.  Ingest is not free, though: whenever the store would
  outgrow :data:`DRAIN_INTERVAL`, a catch-up sorts and merges it even if
  nothing reads, and those catch-ups are the tracker's ingest cost (5.59M
  vs 9.47M updates/s tracked vs untracked on the bench's unread ``bulk``
  stream, on a 2-vCPU x86 box).
* Reads (and a :data:`DRAIN_INTERVAL` safety valve on the segment store)
  amortise the deferred work exactly like the hierarchy's own layer-1
  flush: the deferred keys sorted alone give the distinct coordinates (fan,
  exact ``nnz``); their row halves and column halves — split out of the
  keys only here — are each sorted packed with their positions to group the values
  for the row and column sums; and the grouped results merge into the
  maintained vectors via
  :meth:`Vector.merge_sorted <repro.graphblas.vector.Vector.merge_sorted>` —
  the keyed merge, so a small delta costs a small merge.  All three are
  plain (SIMD) key sorts: regrouping the additions is covered by the
  exactness contract below, which the flush handoff already relies on.
  Crucially, reads only *look* at the matrix, so a stats query leaves the
  layer-1 pending buffer (and therefore the cascade pattern) completely
  undisturbed.
* Fan-out/fan-in require knowing which coordinates are *globally new*, which a
  linear accumulation cannot tell.  :class:`KeySetCascade` solves it with the
  paper's own trick applied to a set: distinct packed ``uint64`` coordinate
  keys live in a small hierarchy of sorted arrays with geometric cuts, so
  membership tests are a few binary searches and insertions amortise
  geometrically instead of paying an O(n) merge per batch.  As a bonus the
  cascade's cardinality is the matrix's exact logical ``nnz`` — also available
  without materialising.

Exactness
---------
The maintained vectors are *exactly* the materialize-based reductions (same
stored index sets, and bit-identical values for any exactly representable
data, e.g. integer packet/byte counts in fp64 — the same guarantee the
sharded engine makes) under the conditions the tracker checks for itself:

* the combining operator is ``plus`` (reductions are linear in the updates;
  any other accumulator sets :attr:`IncrementalReductions.supported` False and
  callers fall back to the materialize path), and
* for fan/nnz, the logical shape packs into a 64-bit key
  (:func:`repro.graphblas.coords.shape_split` — always true for the paper's
  IPv4 :math:`2^{32} \\times 2^{32}` matrices; full 64-bit IPv6 shapes set
  :attr:`IncrementalReductions.fan_supported` False).  Like shard routing,
  the split is a pure function of the shape, deliberately independent of the
  global packing toggle, so disabling the packed kernels never changes the
  tracked stats.

Because updates only ever *add* entries (``plus`` never deletes a stored
coordinate, and explicit zeros remain stored per GraphBLAS semantics), the
distinct-coordinate set is monotone and the cascade never needs deletions.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..graphblas import Matrix, arena, coords
from ..graphblas import _kernels as K
from ..graphblas._kernels import key_group_starts, merge_keys
from ..graphblas.binaryop import BinaryOp, binary
from ..graphblas.errors import InvalidValue
from ..graphblas.types import DataType, lookup_dtype
from ..graphblas.vector import Vector

__all__ = ["KeySetCascade", "IncrementalReductions"]

#: Default cuts of the distinct-key cascade (geometric growth, unbounded top).
DEFAULT_KEY_CUTS = (2 ** 15, 2 ** 18, 2 ** 21)

#: Deferred entries the tracker's segment store may hold before it is
#: settled even if nothing was read.  A safety valve, not a pacing knob: it
#: bounds the store (reserved once at this size) and the latency of the
#: first stats query after a long unread stream.  Streams that defer less
#: pay **zero** in-stream catch-ups — all deferred work lands on the first
#: read.
DRAIN_INTERVAL = 2 ** 20


class KeySetCascade:
    """A hierarchical sorted set of ``uint64`` keys (the paper's cascade, for sets).

    Keys live in ``len(cuts) + 1`` sorted, pairwise-disjoint levels.  New keys
    are merged into level 0; whenever level ``i`` outgrows ``cuts[i]`` it is
    merged into level ``i + 1`` and cleared, so insertion cost amortises
    geometrically (almost all merges touch only the small bottom levels) while
    membership stays a handful of binary searches.

    Parameters
    ----------
    cuts:
        Level-size thresholds :math:`c_0 ... c_{N-2}`; the top level is
        unbounded.  Defaults to ``(2**15, 2**18, 2**21)``.
    """

    def __init__(self, cuts: Optional[Sequence[int]] = None):
        self._cuts: List[int] = [int(c) for c in (cuts or DEFAULT_KEY_CUTS)]
        if any(c <= 0 for c in self._cuts):
            raise InvalidValue(f"cuts must be positive, got {self._cuts}")
        self._levels: List[np.ndarray] = [
            np.empty(0, dtype=coords.KEY_DTYPE) for _ in range(len(self._cuts) + 1)
        ]

    @property
    def count(self) -> int:
        """Number of distinct keys in the set (levels are disjoint, so O(1))."""
        return sum(level.size for level in self._levels)

    @property
    def level_sizes(self) -> Tuple[int, ...]:
        """Stored keys per level (diagnostics)."""
        return tuple(level.size for level in self._levels)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask for an array of query keys (any order)."""
        mask = np.zeros(keys.size, dtype=bool)
        if keys.size == 0:
            return mask
        for level in self._levels:
            if level.size == 0:
                continue
            pos = np.searchsorted(level, keys)
            pos_c = np.minimum(pos, level.size - 1)
            mask |= level[pos_c] == keys
        return mask

    def add_new(self, new_keys: np.ndarray) -> None:
        """Insert keys known to be absent from the set.

        ``new_keys`` must be sorted and duplicate-free, and disjoint from the
        current contents (callers filter through :meth:`contains` first) —
        that is what keeps every level pairwise disjoint and all merges plain
        two-way merges of disjoint sorted arrays.
        """
        if new_keys.size == 0:
            return
        if self._levels[0].size == 0:
            self._levels[0] = new_keys.astype(coords.KEY_DTYPE, copy=True)
        else:
            self._levels[0] = merge_keys(self._levels[0], None, new_keys, None)[0]
        for i, cut in enumerate(self._cuts):
            if self._levels[i].size <= cut:
                break
            if self._levels[i + 1].size == 0:
                self._levels[i + 1] = self._levels[i]
            else:
                self._levels[i + 1] = merge_keys(
                    self._levels[i + 1], None, self._levels[i], None
                )[0]
            self._levels[i] = np.empty(0, dtype=coords.KEY_DTYPE)

    def to_array(self) -> np.ndarray:
        """All keys as one sorted array (test/diagnostic helper, O(n))."""
        out = np.empty(0, dtype=coords.KEY_DTYPE)
        for level in self._levels:
            if level.size:
                out = merge_keys(out, None, level, None)[0]
        return out

    def clear(self) -> None:
        """Empty every level."""
        self._levels = [
            np.empty(0, dtype=coords.KEY_DTYPE) for _ in range(len(self._cuts) + 1)
        ]

    def __contains__(self, key: int) -> bool:
        return bool(self.contains(np.asarray([key], dtype=coords.KEY_DTYPE))[0])

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KeySetCascade count={self.count} levels={list(self.level_sizes)}>"


class IncrementalReductions:
    """Running row/col reduction vectors maintained per ingest batch.

    One tracker is owned by each :class:`~repro.core.HierarchicalMatrix` (and
    therefore by each shard worker's private matrix), which makes it
    :meth:`follow` its layer 1: the tracker reads that layer's pending
    window in place and absorbs its flushes, so the ingest hot path never
    calls it.  The query methods below amortise the deferred sort/merge work
    and only read the owning matrix, so stats reads do not force the
    hierarchy's layer-1 flush.  A standalone tracker is fed with
    :meth:`observe` instead.

    Parameters
    ----------
    nrows, ncols:
        Logical shape of the tracked matrix (fixes the fan/nnz key split).
    dtype:
        Value type of the tracked matrix; the maintained vectors use the same
        type so results are bit-compatible with the materialize-based
        reductions.
    accum:
        The matrix's combining operator.  Only ``plus`` yields linear
        reductions; anything else marks the tracker unsupported.
    enabled:
        Master switch (``HierarchicalMatrix(track_reductions=False)``).

    Query surface (shared with the sharded cross-shard view):

    * :meth:`row_traffic` / :meth:`col_traffic` — weighted out-/in-degree.
    * :meth:`row_fan` / :meth:`col_fan` — distinct counterparties.
    * :meth:`total` — total traffic; :meth:`nnz` — exact logical entry count.
    """

    def __init__(
        self,
        nrows: int,
        ncols: int,
        dtype="fp64",
        accum: Optional[BinaryOp] = None,
        *,
        enabled: bool = True,
    ):
        self._nrows = int(nrows)
        self._ncols = int(ncols)
        self._dtype: DataType = lookup_dtype(dtype)
        accum = accum if accum is not None else binary.plus
        self._supported = bool(enabled) and accum.name == "plus"
        self._spec = coords.shape_split(self._nrows, self._ncols)
        self._fan_supported = self._supported and self._spec is not None
        self._row_traffic = Vector(self._dtype, self._nrows, name="row_traffic")
        self._col_traffic = Vector(self._dtype, self._ncols, name="col_traffic")
        self._row_fan = Vector(self._dtype, self._nrows, name="row_fan")
        self._col_fan = Vector(self._dtype, self._ncols, name="col_fan")
        self._keys = KeySetCascade()
        # Deferred work awaiting one fused catch-up that serves all four
        # vectors and the key cascade: collapsed layer-1 flush windows and
        # raw window slices queued by reads, as (packed key, value-bits)
        # columns — or (row, col, value-bits) on a shape with no key.
        self._segments = arena.PendingArena(2 if self._fan_supported else 3)
        # The followed layer 1 (a weak reference: the layer holds this
        # tracker through its flush hook) and how much of its pending
        # window reads have already queued.
        self._layer: Optional[weakref.ref] = None
        self._taken = 0
        #: Flush windows whose sort/collapse the tracker inherited for free
        #: (:meth:`absorb_flush`), catch-ups over the deferred segments, and
        #: raw, uncollapsed window slices queued (by a read, or by the flush
        #: of a window a read had partly taken).
        #: Diagnostics for the ingest-overhead regression benchmark.
        self.piggybacked_drains = 0
        self.run_merges = 0
        self.full_drains = 0

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def supported(self) -> bool:
        """True when the linear reductions (traffic/total) are maintained."""
        return self._supported

    @property
    def fan_supported(self) -> bool:
        """True when fan-out/fan-in/nnz are maintained (packable shape only)."""
        return self._fan_supported

    @property
    def dtype(self) -> DataType:
        """Value type of the maintained vectors."""
        return self._dtype

    # ------------------------------------------------------------------ #
    # ingest side: the followed layer 1, or direct feeding
    # ------------------------------------------------------------------ #

    def follow(self, layer: Matrix) -> None:
        """Track ``layer``'s updates: read its pending window, absorb its flushes.

        The tracker keeps no copy of the window.  A read queues the part of
        it no earlier read took, and ``layer``'s flush hook settles the
        rest.  The layer is held weakly: it holds the tracker through the
        hook, and a strong reference back would make every matrix a cycle
        that only the cyclic garbage collector frees.
        """
        if self._supported:
            self._layer = weakref.ref(layer)
            layer.flush_hook = self.absorb_flush

    def observe(self, rows, cols, values=1) -> None:
        """Feed one batch to a tracker that follows no layer (rebuilds, tests).

        O(batch): the batch is copied into the segment store (so callers
        may reuse their buffers immediately) and settled on the next read.

        Parameters
        ----------
        rows, cols:
            Batch coordinates (arrays, sequences, or scalars — the same
            domain :meth:`HierarchicalMatrix.update` accepts).
        values:
            Per-coordinate values or a scalar broadcast over the batch (a
            fill of the store's value column, never an ``np.full``).
        """
        if not self._supported:
            return
        rows, cols = K.as_index_array(rows, "rows"), K.as_index_array(cols, "cols")
        if rows.size:
            self._queue((rows, cols), None, arena.value_bits(values, self._dtype.np_type))

    def _queue(self, coordinates, spec, bits: np.ndarray) -> None:
        """Append one run of updates to the segment store.

        ``coordinates`` is ``(keys,)`` packed under ``spec`` or ``(rows,
        cols)``; they are stored in the tracker's own form (keys under its
        split, or rows and cols on a shape with none).  The store is settled
        first if the run would take it past :data:`DRAIN_INTERVAL`, so it
        never outgrows its reservation.
        """
        if len(coordinates) == 1 and spec != self._spec:
            coordinates = coords.unpack(coordinates[0], spec)
        if self._fan_supported and len(coordinates) == 2:
            coordinates = (coords.pack(*coordinates, self._spec),)
        if self._segments.used + coordinates[0].size > DRAIN_INTERVAL:
            self._catch_up()
        self._segments.append(*coordinates, bits)

    def _take(self) -> None:
        """Queue the part of layer 1's pending window no earlier read took."""
        layer = None if self._layer is None else self._layer()
        if layer is None:
            return
        *coordinates, bits = layer.pending_window()
        if bits.size > self._taken:
            self.full_drains += 1
            start, self._taken = self._taken, bits.size
            self._queue([c[start:] for c in coordinates], layer.key_spec, bits[start:])

    def absorb_flush(self, rows, cols, vals, keys=None, spec=None) -> None:
        """Settle the followed layer's flush window (its :attr:`Matrix.flush_hook`).

        The hook fires while the raw window is still in the layer's arena.
        If no read took any of it, the flush has just paid for the sort and
        duplicate collapse of exactly the updates the tracker has not seen,
        so its output is queued as is — two memcpys on the ingest hot path,
        the window's packed keys and value bits (historically the tracker's
        own re-sorts of the same triples cost ~40% ingest rate on long
        unqueried streams).  A keyed flush passes ``keys``/``spec``
        (``rows``/``cols`` ``None``); a dual-key flush passes sorted
        ``rows``/``cols``, packed here under the tracker's split.  If a read
        took the head of the window, the collapsed output would count it
        twice, so only the untaken raw tail is queued.  Either way the
        sort/merge work waits for :meth:`_catch_up`.

        Exactness: the flush output is collapsed per coordinate before the
        per-row/per-column regrouping of the eventual catch-up, while a raw
        slice groups the pairs directly.  Both orderings sum the same
        multiset per index, so results are identical for any exactly
        representable values — the same qualifier the maintained vectors
        already carry (see module docstring).
        """
        if self._taken:
            self._take()
            self._taken = 0
            return
        if self.piggybacked_drains == 0:
            # First piggybacked flush: this matrix is streaming for real, and
            # the segment store is bounded by the drain interval, so reserve
            # it once up front — geometric-growth prefix copies never hit the
            # ingest hot path, and the untouched tail of the reservation
            # stays uncommitted (address space, not RSS).
            self._segments.reserve(DRAIN_INTERVAL)
        coordinates = (rows, cols) if keys is None else (keys,)
        self._queue(coordinates, spec, arena.value_bits(vals, self._dtype.np_type))
        self.piggybacked_drains += 1

    def _group_reduce(self, sorted_idx: np.ndarray, sorted_vals: Optional[np.ndarray]):
        """Collapse runs of equal indices in sorted order.

        One ``reduceat`` sums each run's values; with no values (the fan
        vectors count new coordinates) the run lengths are the result.
        """
        starts = key_group_starts(sorted_idx)
        if sorted_vals is None:
            sums = np.diff(starts, append=sorted_idx.size).astype(self._dtype.np_type)
        else:
            sums = binary.plus.ufunc.reduceat(sorted_vals, starts)
        return sorted_idx[starts], sums

    def _drain(self) -> None:
        """Catch up every deferred reduction (on read).

        The raw, untaken part of layer 1's window is the same kind of data
        as the collapsed flush windows — ``(coordinate, value)`` pairs to be
        summed — so it simply joins the segment store and one
        :meth:`_catch_up` settles both.
        """
        self._take()
        self._catch_up()

    @staticmethod
    def _sort_with_order(idx: np.ndarray, nbits: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted idx, permutation)`` for indices known to fit ``nbits`` bits.

        When the index and its position fit one ``uint64`` together, the
        pair is packed and sorted as plain keys — ``np.sort`` on ``uint64``
        is SIMD-vectorised and several times faster than any ``argsort`` —
        and the permutation is read back out of the low bits.  Otherwise a
        plain (unstable) argsort.
        """
        position_bits = 64 - nbits
        if idx.size.bit_length() > position_bits:
            order = np.argsort(idx)
            return idx[order], order
        packed = (idx << np.uint64(position_bits)) | np.arange(idx.size, dtype=np.uint64)
        packed.sort()
        return packed >> np.uint64(position_bits), packed & np.uint64((1 << position_bits) - 1)

    def _catch_up(self) -> None:
        """Settle the deferred segments (the read-time half of the design).

        Three key sorts, no stable argsort: the stashed keys sorted alone
        yield the distinct coordinates for fan/nnz and the cascade
        insertion; the row halves and the column halves — split out of the
        keys only here — are each sorted together with their positions
        (:meth:`_sort_with_order`) to group the values for the two traffic
        vectors.  Each grouped delta then merges into its vector with the
        keyed merge, so the cost is independent of how many windows
        accumulated and follows the delta, not the vector.  Unpackable
        (IPv6) shapes store rows and cols: two plain per-axis argsorts serve
        the traffic vectors, with fan tracking disabled.
        """
        if not self._segments.used:
            return
        self.run_merges += 1
        *coordinates, bits = self._segments.views()
        vals = arena.bits_to_values(bits, self._dtype.np_type)
        if self._fan_supported:
            (keys,), spec = coordinates, self._spec
            axes = (
                (keys >> np.uint64(spec.col_bits), spec.row_bits),
                (keys & spec.col_mask, spec.col_bits),
            )
        else:
            axes = ((coordinates[0], 64), (coordinates[1], 64))
        for vector, (idx, nbits) in zip((self._row_traffic, self._col_traffic), axes):
            idx, order = self._sort_with_order(idx, nbits)
            vector.merge_sorted(*self._group_reduce(idx, vals[order]))
        if self._fan_supported:
            skeys = np.sort(keys)
            self._insert_new_keys(skeys[key_group_starts(skeys)])
        self._segments.reset()

    def _insert_new_keys(self, unique_keys: np.ndarray) -> None:
        """Dedupe sorted distinct keys against the cascade; update fan vectors."""
        new = unique_keys[~self._keys.contains(unique_keys)]
        if not new.size:
            return
        self._keys.add_new(new)
        new_rows, new_cols = coords.unpack(new, self._spec)
        self._row_fan.merge_sorted(*self._group_reduce(new_rows, None))
        self._col_fan.merge_sorted(*self._group_reduce(np.sort(new_cols), None))

    # ------------------------------------------------------------------ #
    # queries (read, never flush, the owning matrix)
    # ------------------------------------------------------------------ #

    def _require(self, fan: bool = False) -> None:
        if not self._supported:
            raise InvalidValue(
                "incremental reductions unavailable (disabled or non-plus accumulator)"
            )
        if fan and not self._fan_supported:
            raise InvalidValue(
                "incremental fan/nnz unavailable: shape does not pack into a "
                "64-bit coordinate key (full IPv6 matrices fall back to materialize)"
            )

    def row_traffic(self) -> Vector:
        """Weighted out-degree: per-row sum of every update observed so far."""
        self._require()
        self._drain()
        return self._row_traffic.dup()

    def col_traffic(self) -> Vector:
        """Weighted in-degree: per-column sum of every update observed so far."""
        self._require()
        self._drain()
        return self._col_traffic.dup()

    def row_fan(self) -> Vector:
        """Fan-out: number of distinct destinations stored per source row."""
        self._require(fan=True)
        self._drain()
        return self._row_fan.dup()

    def col_fan(self) -> Vector:
        """Fan-in: number of distinct sources stored per destination column."""
        self._require(fan=True)
        self._drain()
        return self._col_fan.dup()

    def total(self):
        """Total traffic (sum of every observed update), in the matrix dtype."""
        self._require()
        self._drain()
        return self._row_traffic.reduce("plus")

    def nnz(self) -> int:
        """Exact logical entry count (cardinality of the distinct-key cascade)."""
        self._require(fan=True)
        self._drain()
        return self._keys.count

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Forget everything (mirrors ``HierarchicalMatrix.clear``)."""
        self._row_traffic.clear()
        self._col_traffic.clear()
        self._row_fan.clear()
        self._col_fan.clear()
        self._keys.clear()
        self._segments.reset()
        self._taken = 0

    def rebuild_from_triples(
        self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> None:
        """Re-derive all state from a materialised (sorted, duplicate-free) COO set.

        Used by checkpoint load and slab discard, which inject layer
        contents without replaying the update stream.  O(n log n) once.
        """
        self.reset()
        self.observe(rows, cols, vals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "unsupported"
            if not self._supported
            else ("traffic+fan" if self._fan_supported else "traffic-only")
        )
        return (
            f"<IncrementalReductions {state}, "
            f"deferred={self._segments.used}, taken={self._taken}, "
            f"distinct={self._keys.count}>"
        )
