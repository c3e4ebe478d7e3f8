"""Hierarchical hypersparse matrices (the paper's primary contribution).

An N-level hierarchical hypersparse matrix maintains GraphBLAS matrices
:math:`A_1 ... A_N` with nonzero-count cuts :math:`c_1 ... c_{N-1}`:

* Streaming updates are added into the smallest matrix: :math:`A_1 = A_1 + A`.
* Whenever :math:`nnz(A_i) > c_i`, layer :math:`A_i` is added into
  :math:`A_{i+1}` and cleared.  The check repeats up the hierarchy until
  :math:`nnz(A_i) \\le c_i` or the unbounded last layer is reached.
* A full query materialises :math:`A = \\sum_{i=1}^{N} A_i`.

Because the layers are combined with the GraphBLAS ``plus`` operation, the
result is *exactly* the matrix obtained by a single flat accumulation — the
hierarchy is purely a performance transformation, which is the linearity
guarantee the paper leans on.  The small layers absorb the overwhelming
majority of element writes, so almost all work happens on arrays small enough
to stay in fast memory.

Deferred layer-1 ingest
-----------------------
Streaming batches are packed once into ``uint64`` coordinate keys and
*appended* to layer 1's pending buffer in O(n) instead of being eagerly
sorted and merged; from there to the top layer (and into the reduction
tracker) the keys are the only coordinate representation that moves —
flushes and cascade merges never pack or unpack.  That buffer is the one
copy of the current window: the reduction tracker reads it in place.
The cascade check counts pending tuples via the O(1)
``Matrix.nvals_upper_bound``; only when stored + pending crosses the first
cut :math:`c_1` does layer 1 pay one ``wait()`` (sort + collapse + merge,
amortised over every batch appended since the last flush).  Because raw
pending tuples over-count duplicates, the bound may trigger a flush whose
collapsed ``nvals`` is still under the cut — then no cascade happens and
streaming resumes; cascades themselves still fire on the exact post-collapse
``nnz(A_1) > c_1`` condition, so the cascade pattern (and the final matrix)
is identical to eager ingest.  Queries (``materialize``, ``get``,
``layer_nvals`` ...) force the flush, so readers never observe pending state.
Deferral regroups batches (collapse first, then one merge), which equals
batch-by-batch merging only for associative accumulators; ``Matrix.build``
ingests non-associative ones (``minus``, ``div`` ...) eagerly.

Incremental reductions
----------------------
With ``track_reductions=True`` (the default) an
:class:`~repro.core.reductions.IncrementalReductions` tracker maintains
running out-/in-degree, fan-out/fan-in, total traffic, and exact ``nnz``,
available through :attr:`incremental` *without* materialising and without
forcing the deferred layer-1 flush.  Ingest never calls it: the tracker
follows layer 1, reading the pending window on a stats read and absorbing
each layer-1 flush's collapsed output through the flush hook.  The analytics
layer (:mod:`repro.analytics`) uses it automatically.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graphblas import Matrix, binary, coords
from ..graphblas import _kernels as K
from ..graphblas.binaryop import BinaryOp
from ..graphblas.errors import DimensionMismatch, InvalidValue
from ..graphblas.types import DataType, lookup_dtype
from .policy import CutPolicy, FixedCuts, default_policy
from .reductions import IncrementalReductions
from .stats import UpdateStats

__all__ = ["HierarchicalMatrix"]

MAX_DIM = 2 ** 64


class HierarchicalMatrix:
    """An N-level cascade of hypersparse GraphBLAS matrices.

    Parameters
    ----------
    nrows, ncols:
        Logical dimensions (default the full 2^64 IPv6 address space).
    dtype:
        GraphBLAS value type (default FP64).
    cuts:
        Explicit cut thresholds :math:`c_1 ... c_{N-1}`; mutually exclusive
        with ``policy``.
    policy:
        A :class:`~repro.core.policy.CutPolicy` supplying the cuts, which are
        fixed at construction.  When neither ``cuts`` nor ``policy`` is given
        the library default (4 levels, geometric growth) is used.
    accum:
        Binary operator used both for merging updates into layer 1 and for
        cascading layers (default ``plus``, as in the paper).
    track_reductions:
        When True (default) maintain incremental row/col reduction vectors
        (degrees, fans, total traffic, exact nnz) updated per ingest batch
        and served through :attr:`incremental` without materialising.  The
        tracker deactivates itself for non-``plus`` accumulators, where the
        reductions are not linear in the updates (reads then fall back to the
        materialize path in :mod:`repro.analytics`).

    Examples
    --------
    >>> import numpy as np
    >>> H = HierarchicalMatrix(2**32, 2**32, cuts=[4, 16])
    >>> H.update([1, 2, 3], [4, 5, 6], [1.0, 1.0, 1.0]).update([1, 7, 8, 9], [4, 7, 8, 9], 2.0)
    <HierarchicalMatrix 4294967296x4294967296 FP64, levels=3, cuts=[4, 16], layer_nvals=[0, 6, 0]>
    >>> H.materialize()[1, 4]
    3.0
    >>> H.stats.total_updates, H.stats.cascades
    (7, [1, 0, 0])
    """

    def __init__(
        self,
        nrows: int = MAX_DIM,
        ncols: int = MAX_DIM,
        dtype="fp64",
        *,
        cuts: Optional[Sequence[int]] = None,
        policy: Optional[CutPolicy] = None,
        accum: Optional[BinaryOp] = None,
        track_reductions: bool = True,
        name: str = "",
    ):
        if cuts is not None and policy is not None:
            raise InvalidValue("pass either cuts= or policy=, not both")
        if policy is None:
            policy = FixedCuts(cuts) if cuts is not None else default_policy()
        self._policy = policy
        self._cuts: List[int] = list(policy.initial_cuts())
        if not self._cuts:
            raise InvalidValue("a hierarchy needs at least one cut (two levels)")
        self._nlevels = len(self._cuts) + 1
        self._dtype: DataType = lookup_dtype(dtype)
        self._nrows = int(nrows)
        self._ncols = int(ncols)
        self._accum = accum if accum is not None else binary.plus
        self._layers: List[Matrix] = [
            Matrix(self._dtype, self._nrows, self._ncols, name=f"{name}A{i + 1}")
            for i in range(self._nlevels)
        ]
        self._stats = UpdateStats(self._nlevels)
        self._incremental = IncrementalReductions(
            self._nrows,
            self._ncols,
            self._dtype,
            self._accum,
            enabled=track_reductions,
        )
        # The tracker keeps no copy of the updates: it reads layer 1's
        # pending window and rides its flushes (support implies ``plus``, so
        # layer 1 always defers when the tracker follows it).
        self._incremental.follow(self._layers[0])
        self.name = name

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def nrows(self) -> int:
        """Number of rows of the logical matrix."""
        return self._nrows

    @property
    def ncols(self) -> int:
        """Number of columns of the logical matrix."""
        return self._ncols

    @property
    def shape(self) -> Tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self._nrows, self._ncols)

    @property
    def dtype(self) -> DataType:
        """Value type of every layer."""
        return self._dtype

    @property
    def nlevels(self) -> int:
        """Number of layers ``N``."""
        return self._nlevels

    @property
    def cuts(self) -> Tuple[int, ...]:
        """Current cut thresholds :math:`c_1 ... c_{N-1}`."""
        return tuple(self._cuts)

    @property
    def layers(self) -> Tuple[Matrix, ...]:
        """The layer matrices :math:`A_1 ... A_N` (do not mutate directly)."""
        return tuple(self._layers)

    @property
    def layer_nvals(self) -> Tuple[int, ...]:
        """Stored entries per layer."""
        return tuple(layer.nvals for layer in self._layers)

    @property
    def nvals_stored(self) -> int:
        """Total stored entries summed over layers.

        This counts coordinates stored in more than one layer multiple times;
        the exact logical ``nvals`` requires :meth:`materialize`.
        """
        return sum(layer.nvals for layer in self._layers)

    @property
    def nvals(self) -> int:
        """Exact number of logical entries (materialises the sum of layers)."""
        return self.materialize().nvals

    @property
    def stats(self) -> UpdateStats:
        """Update counters: updates, element writes and cascades per layer."""
        return self._stats

    @property
    def policy(self) -> CutPolicy:
        """The cut policy in force."""
        return self._policy

    @property
    def accum(self) -> BinaryOp:
        """The accumulator combining duplicate coordinates (default ``plus``)."""
        return self._accum

    @property
    def incremental(self) -> IncrementalReductions:
        """Incremental reduction vectors maintained during ingest.

        Check :attr:`IncrementalReductions.supported` (and
        :attr:`~IncrementalReductions.fan_supported` for fan/nnz) before
        querying; the analytics layer does this automatically and falls back
        to :meth:`materialize`-based reductions when unavailable.
        """
        return self._incremental

    @property
    def memory_usage(self) -> int:
        """Approximate resident bytes of coordinate/value storage across all layers."""
        return sum(layer.memory_usage for layer in self._layers)

    @property
    def memory_breakdown(self) -> dict:
        """Per-role byte totals summed over layers (stored vs pending used/capacity).

        Same keys as :attr:`Matrix.memory_breakdown
        <repro.graphblas.matrix.Matrix.memory_breakdown>`; placement
        decisions should follow ``pending_capacity_bytes`` (resident) while
        traffic estimates follow ``pending_used_bytes`` (live data).
        """
        total = {"stored_bytes": 0, "pending_used_bytes": 0, "pending_capacity_bytes": 0}
        for layer in self._layers:
            for key, nbytes in layer.memory_breakdown.items():
                total[key] += nbytes
        return total

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def update(self, rows, cols, values=1) -> "HierarchicalMatrix":
        """Add a batch of triples to the hierarchy (``A_1 = A_1 + A``), then cascade.

        Parameters
        ----------
        rows, cols:
            Coordinates of the batch; arrays, sequences, or bare scalars/0-d
            arrays (``H.update(5, 6)`` adds one element, like
            ``Matrix.build``).
        values:
            Per-coordinate values, or a scalar broadcast over the whole batch
            (the traffic-matrix use case adds 1 per observed packet; this is
            the default).  A scalar stays a scalar: it fills the pending
            value column instead of being expanded first.

        Returns ``self`` for chaining.  The batch is validated and packed
        once, here, and appended to layer 1, where the :attr:`incremental`
        reduction tracker reads it.
        """
        r = K.as_index_array(rows, "rows")
        c = K.as_index_array(cols, "cols")
        return self._ingest(r, c, self._layers[0].pack_batch(r, c), values)

    def update_packed(self, keys, values=1) -> "HierarchicalMatrix":
        """:meth:`update` for a batch that already is packed keys.

        ``keys`` are ``coords.pack(rows, cols, coords.shape_split(nrows,
        ncols))`` — the form the shard router, both binary wires and a
        migrating slab already hold — so callers behind a wire hand them
        straight to the layer-1 arena (one memcpy) instead of unpacking for
        :meth:`update` to pack again.  Raises for shapes with no 64-bit
        split and for keys outside the shape.
        """
        keys = np.ascontiguousarray(keys, dtype=coords.KEY_DTYPE)
        self._layers[0].check_keys(keys)
        return self._ingest(None, None, keys, values)

    def _ingest(self, r, c, keys, values) -> "HierarchicalMatrix":
        """Append one validated batch (``keys`` is ``None`` on the dual-key store)."""
        # No defensive copies: the layer-1 pending buffer is a preallocated
        # arena that copies at append time, so caller-owned arrays are safe
        # to reuse immediately.  The tracker needs no call: it reads this
        # same buffer.
        self._layers[0].build(r, c, values, dup_op=self._accum, lazy=True, keys=keys)
        self._stats.record_update(int(r.size if keys is None else keys.size))
        self._cascade()
        return self

    def update_matrix(self, other: Matrix) -> "HierarchicalMatrix":
        """Add an already-built hypersparse matrix into the hierarchy."""
        if other.shape != self.shape:
            raise DimensionMismatch(
                f"update_matrix requires shape {self.shape}, got {other.shape}"
            )
        r, c, v = other.extract_tuples()
        return self._ingest(r, c, self._layers[0].pack_batch(r, c), v)

    def insert(self, row: int, col: int, value=1) -> "HierarchicalMatrix":
        """Add a single element (convenience wrapper around :meth:`update`)."""
        return self.update([row], [col], [value])

    def __iadd__(self, other) -> "HierarchicalMatrix":
        if isinstance(other, Matrix):
            return self.update_matrix(other)
        if isinstance(other, tuple) and len(other) in (2, 3):
            return self.update(*other)
        raise TypeError(
            "HierarchicalMatrix += expects a Matrix or a (rows, cols[, values]) tuple"
        )

    def _cascade(self) -> None:
        """Propagate overflowing layers upward (Fig. 1 of the paper).

        Layer ``i`` is merged into layer ``i+1`` and cleared whenever its
        stored-entry count exceeds ``c_i``; the scan repeats on the next layer
        so a single large update can ripple through several levels.

        The first check per layer uses the O(1) ``nvals_upper_bound`` (stored
        + pending tuples) so the streaming hot path never forces a pending
        merge; only when the bound crosses the cut is the layer flushed and
        the exact post-collapse ``nvals`` consulted.  A layer's size is
        recorded in ``max_layer_nvals`` only where it is exact: raw pending
        tuples over-count duplicates, so a bound with pending tuples in it
        is never recorded.
        """
        for i in range(self._nlevels - 1):
            bound = self._layers[i].nvals_upper_bound
            if bound <= self._cuts[i]:
                if not self._layers[i].has_pending:
                    self._stats.record_layer_size(i, bound)
                break
            nvals_i = self._layers[i].nvals  # forces the deferred merge
            self._stats.record_layer_size(i, nvals_i)
            if nvals_i <= self._cuts[i]:
                # Duplicate collapse brought the layer back under the cut.
                break
            self._layers[i + 1].update(self._layers[i], accum=self._accum)
            self._layers[i].reset()  # keeps the pending arena for the next window
            self._stats.record_cascade(i, nvals_i)
            self._stats.record_layer_size(i + 1, self._layers[i + 1].nvals)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def materialize(self) -> Matrix:
        """Sum all layers into a single hypersparse matrix (:math:`A = \\sum_i A_i`).

        The layers themselves are left untouched, so streaming can continue.
        """
        out = Matrix(self._dtype, self._nrows, self._ncols, name=f"{self.name}sum")
        for layer in self._layers:
            if layer.nvals:
                out.update(layer, accum=self._accum)
        return out

    def wait(self) -> "HierarchicalMatrix":
        """Force layer 1's deferred pending merge (and any resulting cascade).

        Streaming may continue afterwards, and the :attr:`incremental`
        reduction tracker is unaffected (it drains on its own schedule).
        :class:`~repro.workloads.IngestSession` and the shard workers'
        ``finalize`` call this inside their timed span, so the reported
        ingest rate includes the sort/merge work that deferred ingest
        postponed; it is a no-op under a non-associative ``accum``, which
        ingests eagerly.  Returns ``self`` for chaining.
        """
        if self._layers[0].has_pending:
            self._layers[0].wait()
            self._cascade()
        return self

    def flush(self) -> Matrix:
        """Collapse every layer into the last one and return it.

        After ``flush`` the lower layers are empty and the top layer holds the
        complete matrix; streaming may continue afterwards.
        """
        top = self._layers[-1]
        for layer in self._layers[:-1]:
            if layer.nvals:
                top.update(layer, accum=self._accum)
                self._stats.element_writes[-1] += layer.nvals
                layer.reset()
        return top

    def get(self, row: int, col: int, default=None):
        """Read one logical element (sums contributions from every layer)."""
        found = False
        acc = None
        for layer in self._layers:
            v = layer.extractElement(row, col)
            if v is None:
                continue
            if not found:
                acc = v
                found = True
            else:
                acc = self._accum(np.asarray(acc), np.asarray(v)).item()
        return acc if found else default

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            return self.get(int(key[0]), int(key[1]))
        raise TypeError("HierarchicalMatrix indexing requires a (row, col) pair")

    def __contains__(self, key) -> bool:
        return self.get(int(key[0]), int(key[1])) is not None

    def reset_from_triples(self, pieces) -> "HierarchicalMatrix":
        """Replace the logical content with COO pieces given in layer order.

        Each ``(rows, cols, vals)`` piece must be sorted and duplicate-free,
        as one layer's ``extract_tuples`` is — what a shard's
        ``discard_slab`` keeps of each layer.  The pieces are folded into the
        unbounded top layer with ``accum`` in the order given (the combine
        :meth:`materialize` does, each step a merge of two sorted runs; no
        cascades fire), the lower layers start empty, and the
        :attr:`incremental` tracker is rebuilt from the combined triples, so
        the logical matrix and its tracked reductions stay mutually exact.
        Streaming may continue afterwards.
        """
        for layer in self._layers:
            layer.clear()
        top = self._layers[-1]
        for rows, cols, vals in pieces:
            top.build(rows, cols, vals, dup_op=self._accum)
        self._incremental.rebuild_from_triples(*top.extract_tuples())
        return self

    def clear(self) -> "HierarchicalMatrix":
        """Empty every layer (cuts and statistics structure are retained)."""
        for layer in self._layers:
            layer.clear()
        self._stats.reset()
        self._incremental.reset()
        return self

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Extract the logical matrix as coordinate triples."""
        return self.materialize().extract_tuples()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        sizes = ", ".join(str(n) for n in self.layer_nvals)
        return (
            f"<HierarchicalMatrix{label} {self._nrows}x{self._ncols} "
            f"{self._dtype.name}, levels={self._nlevels}, cuts={self._cuts}, "
            f"layer_nvals=[{sizes}]>"
        )
