"""Sharded hierarchical hypersparse matrices over the persistent worker pool.

The paper's headline 75B updates/s is a *sum over many independent
hierarchical-matrix instances*; this module turns that sum into one logical
matrix.  A :class:`ShardedHierarchicalMatrix` partitions the coordinate space
across K shards, each shard owning a private
:class:`~repro.core.HierarchicalMatrix` with deferred layer-1 ingest, and
routes every externally supplied stream batch to the shards that own its
coordinates.  Because routing is a pure function of ``(row, col)``, every
update for a given coordinate lands on the same shard *in stream order*, the
shards' stored coordinate sets are pairwise disjoint, and the globally merged
result is exactly the matrix a single flat hierarchy would have produced from
the same stream (bit-identical for any exactly representable values, e.g. the
packet/byte counts of the traffic workload — property-tested in
``tests/distributed/test_sharded.py`` across shard counts and both coordinate
engines).

Routing reuses the PR-1 packed-coordinate codec: whenever the logical shape
fits a 64-bit split (:func:`repro.graphblas.coords.shape_split` — always true
for the IPv4 :math:`2^{32} \\times 2^{32}` traffic matrices), the shard key is
the packed ``uint64`` ``(row << col_bits) | col``; hash partitioning mixes it
through splitmix64, range partitioning divides the occupied key space into K
contiguous slabs (preserving locality for range analytics).  Full 64-bit IPv6
shapes fall back to hashing the raw coordinates / range-partitioning rows.

Since PR 5 the shard owning a coordinate is no longer frozen at construction:
ownership lives in an epoch-versioned :class:`~repro.distributed.partition.
PartitionMap` that :meth:`ShardedHierarchicalMatrix.rebalance` rewrites by
migrating a slab of stored triples (plus its derived tracker state) between
live workers — the stream keeps flowing, and the conformance suite holds the
result bit-identical to a flat matrix across any rebalance schedule, under
the engine's standing exactness caveat: migration ships *combined* values
(and forces the source's deferred flush), which regroups floating-point
additions, so bit-identity is guaranteed for exactly representable values
(integer packet/byte counts — the same qualifier the sharded guarantee has
carried since PR 2); arbitrary float streams agree to rounding.

Process-backed shards (``use_processes=True``) are forked workers on the
other end of one stream socket each; since PR 7 they can also live on
*other machines*: ``nodes`` connects every worker slot to a
:class:`~repro.distributed.node.NodeAgent` endpoint instead of forking
locally — the same frames either way — and ``replicas=r`` provisions ``r``
mirror workers per shard.  Every ingest batch is mirrored before any failure
is even detectable, so when a primary worker (or its whole node) dies the
router *fails over*: the pool promotes a live replica and the next partition
map epoch is published (identical intervals, bumped version — see
:meth:`PartitionMap.advance <repro.distributed.partition.PartitionMap.
advance>`), with zero lost updates.  A crashed shard with no live replica
propagates :class:`~repro.distributed.worker.WorkerCrash` and leaves the
previous epoch in force.

Since PR 9 replication is *mutation-complete*: every migration step
(``extract_slab`` / ``install_slab`` / ``discard_slab``) is mirrored to the
touched shard's replica legs, so a rebalance leaves each replica
bit-identical to its primary with no post-hoc resync — a failover landing
mid-migration, or right after one, promotes a replica that already holds
exactly the migrated state.  Retired replica slots are visible through
:meth:`ShardedHierarchicalMatrix.missing_replicas` and restored one at a
time by :meth:`ShardedHierarchicalMatrix.resync_replica`; the service-layer
:class:`~repro.service.AutoRejoiner` drives that hands-off, re-dialing
restarted agents with backoff.
"""

from __future__ import annotations

import contextlib

import numpy as np

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from ..graphblas import Matrix, Vector, coords
from ..graphblas import _kernels as K
from ..graphblas.binaryop import BinaryOp, binary
from ..graphblas.errors import DimensionMismatch, InvalidIndex, InvalidValue
from ..graphblas.types import DataType, lookup_dtype
from ..workloads.stream import normalize_batch
from .partition import (
    PARTITION_NAMES,
    PartitionMap,
    partition_keys,
    partition_keyspace,
)
from .pool import ShardWorkerPool, WorkerReport
from .worker import WorkerCrash, WorkerDied

__all__ = [
    "ShardRouter",
    "ShardedIncrementalReductions",
    "ShardedHierarchicalMatrix",
    "RebalanceReport",
]

_KEY_BITS = 64


class ShardRouter:
    """Deterministic ``(row, col, epoch) -> shard`` routing over the packed-key codec.

    Parameters
    ----------
    nshards:
        Number of shards K.
    nrows, ncols:
        Logical shape of the sharded matrix; fixes the bit split once so every
        batch routes identically.
    partition:
        ``"hash"`` (splitmix64 of the packed key, load-balancing) or
        ``"range"`` (contiguous slabs of the packed key space, locality
        preserving).  Either way the partition key feeds an epoch-versioned
        :class:`~repro.distributed.partition.PartitionMap`; the epoch-0 map
        reproduces the closed-form PR-2 range assignment exactly, while hash
        placement becomes contiguous slabs of the hashed keyspace (same
        uniform load as the old modulo; see
        :meth:`PartitionMap.uniform <repro.distributed.partition.PartitionMap.uniform>`).

    Notes
    -----
    The split comes from :func:`repro.graphblas.coords.shape_split`, which
    ignores the global packing toggle — disabling the packed kernels for
    benchmarking never changes which shard owns a coordinate.  Ownership *is*
    allowed to change across map epochs: :meth:`install` publishes the next
    map after a completed slab migration, and every batch routes under
    exactly one epoch.
    """

    def __init__(
        self,
        nshards: int,
        *,
        nrows: int = 2 ** 32,
        ncols: int = 2 ** 32,
        partition: str = "hash",
    ):
        self.nshards = int(nshards)
        if self.nshards < 1:
            raise InvalidValue("nshards must be >= 1")
        if partition not in PARTITION_NAMES:
            raise InvalidValue(f"partition must be 'hash' or 'range', got {partition!r}")
        self.partition = partition
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.spec = coords.shape_split(self.nrows, self.ncols)
        # The occupied key space (nrows << col_bits) for packable range
        # partitions, the row space for unpackable ones, the full hashed
        # 2^64 for hash — see partition_keyspace for the rationale.
        self.keyspace = partition_keyspace(partition, self.spec, self.nrows)
        self._map = PartitionMap.uniform(self.nshards, self.keyspace)

    @property
    def map(self) -> PartitionMap:
        """The partition map currently routing batches."""
        return self._map

    @property
    def epoch(self) -> int:
        """Epoch of the installed map (0 until the first rebalance)."""
        return self._map.epoch

    def install(self, new_map: PartitionMap) -> None:
        """Publish the next map epoch (after a completed slab migration)."""
        if new_map.nshards != self.nshards or new_map.keyspace != self.keyspace:
            raise InvalidValue("partition map does not match this router's domain")
        if new_map.epoch <= self._map.epoch:
            raise InvalidValue(
                f"stale map epoch {new_map.epoch} (installed: {self._map.epoch})"
            )
        self._map = new_map

    def partition_keys(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        keys: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Partition key of each pair (the map's domain; shared with workers)."""
        return partition_keys(rows, cols, self.partition, self.spec, keys=keys)

    def shard_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Shard index of each coordinate pair (vectorised, int64)."""
        return self.route(rows, cols)[0]

    def route(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        *,
        keys: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Shard index of each pair, plus the packed keys.

        Returns ``(shard, keys)`` where ``keys`` is the packed ``uint64``
        coordinate key array under :attr:`spec` — what the wire frames and
        every shard's layer-1 arena take, so a routed batch is packed
        exactly once.  ``keys`` is ``None`` only when the shape has no
        64-bit split.

        Callers that already hold the packed keys (the gateway decodes them
        straight off its client wire) pass them in as ``keys`` — aligned
        with ``rows`` and packed under :attr:`spec` — and routing reuses
        them instead of packing.  Supplied keys are ignored for shapes with
        no 64-bit split.
        """
        if self.spec is None:
            keys = None
        elif keys is not None:
            keys = np.asarray(keys, dtype=np.uint64)
        else:
            keys = coords.pack(rows, cols, self.spec)
        if self.nshards == 1:
            return np.zeros(rows.size, dtype=np.int64), keys
        pkeys = partition_keys(rows, cols, self.partition, self.spec, keys=keys)
        return self._map.owner_of(pkeys), keys


class ShardedIncrementalReductions:
    """Cross-shard view of the per-shard incremental reduction trackers.

    Presents the same query surface as
    :class:`~repro.core.reductions.IncrementalReductions` — ``row_traffic`` /
    ``col_traffic`` / ``row_fan`` / ``col_fan`` / ``total`` / ``nnz`` plus the
    ``supported`` / ``fan_supported`` flags — so the analytics layer treats a
    sharded matrix exactly like a flat one.  Each query issues one
    ``reduce_incremental`` (or ``stats``) command per shard and merges the
    partial vectors with a sparse ``plus``:

    * traffic vectors: a row's global sum is the sum of its per-shard sums;
    * fan vectors and ``nnz``: shards own pairwise-disjoint coordinate sets,
      so distinct-counterparty counts and entry counts add exactly;
    * ``total``: a plain scalar sum.

    Queries are served from the shards' running trackers and therefore never
    force a shard's deferred layer-1 flush or a materialize.
    """

    def __init__(self, owner: "ShardedHierarchicalMatrix"):
        self._owner = owner
        self._flags: Optional[Tuple[bool, bool]] = None
        self._stats_memo: Optional[Tuple[Tuple[int, int], List[dict]]] = None

    def _stats(self) -> List[dict]:
        # One stats round serves every scalar in a query burst: the reply is
        # memoised against the owner's routed-update counters, so e.g.
        # ``degree_summary`` (which reads nnz and total back to back) costs a
        # single cross-shard round until the next batch is routed.
        stamp = (self._owner._total_updates, self._owner._batches)
        if self._stats_memo is not None and self._stats_memo[0] == stamp:
            return self._stats_memo[1]
        stats = self._owner._request_all("stats")
        if self._flags is None:
            self._flags = (
                all(s["supported"] for s in stats),
                all(s["fan_supported"] for s in stats),
            )
        self._stats_memo = (stamp, stats)
        return stats

    def invalidate(self) -> None:
        """Drop the memoised per-shard stats.

        Called after a rebalance: migration moves entries between shards
        without routing new updates, so the memo stamp (routed-update
        counters) would not change while the per-shard snapshots did.
        """
        self._stats_memo = None

    def _support_flags(self) -> Tuple[bool, bool]:
        # Support is a pure function of the (uniform) shard configuration, so
        # one round of `stats` replies is cached for the view's lifetime (the
        # view itself lives as long as its owning matrix).
        if self._flags is None:
            self._stats()
        return self._flags

    @property
    def supported(self) -> bool:
        """True when every shard maintains the linear (traffic) reductions."""
        return self._support_flags()[0]

    @property
    def fan_supported(self) -> bool:
        """True when every shard also maintains fan/nnz (packable shape)."""
        return self._support_flags()[1]

    def _merge(self, kind: str, size: int) -> Vector:
        partials = self._owner._request_all("reduce_incremental", kind)
        out = Vector(self._owner._dtype, size)
        for part in partials:
            if part is None:
                raise InvalidValue(
                    f"shard declined incremental reduction {kind!r}; "
                    "check supported/fan_supported first"
                )
            indices, vals = part
            if indices.size:
                out.build(indices, vals, dup_op=binary.plus)
        return out

    def row_traffic(self) -> Vector:
        """Weighted out-degree merged across shards."""
        return self._merge("row_traffic", self._owner.nrows)

    def col_traffic(self) -> Vector:
        """Weighted in-degree merged across shards."""
        return self._merge("col_traffic", self._owner.ncols)

    def row_fan(self) -> Vector:
        """Fan-out merged across shards (disjoint ownership makes sums exact)."""
        return self._merge("row_fan", self._owner.nrows)

    def col_fan(self) -> Vector:
        """Fan-in merged across shards."""
        return self._merge("col_fan", self._owner.ncols)

    def total(self) -> float:
        """Global total traffic (sum of per-shard totals)."""
        stats = self._stats()
        if not self._flags[0]:
            raise InvalidValue(
                "incremental reductions unavailable (disabled or non-plus accumulator)"
            )
        return float(sum(s["total"] for s in stats))

    def nnz(self) -> int:
        """Exact global logical entry count (shards are disjoint, so a sum)."""
        stats = self._stats()
        if not self._flags[1]:
            raise InvalidValue(
                "incremental fan/nnz unavailable: shape does not pack into a "
                "64-bit coordinate key"
            )
        return int(sum(s["nnz"] for s in stats))


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one completed live slab migration.

    Attributes
    ----------
    epoch:
        Map epoch *after* the migration (the epoch new batches route under).
    source, dest:
        Shard the slab left and the shard it now lives on.
    moved:
        Stored entries migrated.
    slab:
        The reassigned partition-key interval ``[lo, hi)``.
    loads_before:
        Per-shard load (by the policy's metric) when the migration was
        decided.
    imbalance_before:
        ``max(load) / mean(load)`` at decision time (1.0 is perfectly even).
    """

    epoch: int
    source: int
    dest: int
    moved: int
    slab: Tuple[int, int]
    loads_before: Tuple[float, ...]
    imbalance_before: float


class ShardedHierarchicalMatrix:
    """One logical hierarchical hypersparse matrix partitioned across K shards.

    Each shard is a private :class:`~repro.core.HierarchicalMatrix` owned by a
    long-lived worker (a separate process when ``use_processes=True``, an
    in-process slot otherwise), so external streams — packet windows,
    session batches, replayed triple files — can be routed, ingested at
    streaming rates, and then queried globally.

    Parameters
    ----------
    nshards:
        Number of shards.
    nrows, ncols:
        Logical dimensions (default the IPv4 :math:`2^{32} \\times 2^{32}`
        traffic-matrix space).
    dtype:
        GraphBLAS value type of every shard.
    cuts:
        Hierarchical cut thresholds forwarded to every shard.
    accum:
        Combining operator (name or :class:`BinaryOp`; default ``plus``).
        Crosses the process boundary by registry name.
    partition:
        ``"hash"`` or ``"range"`` coordinate partitioning (see
        :class:`ShardRouter`).
    use_processes:
        Back shards with long-lived worker processes (streaming parallelism)
        instead of in-process slots (zero IPC; the default, right for
        tests and single-core machines).  Each worker is reached over one
        stream socket carrying packed ``uint64`` keys + raw value bits
        (:class:`~repro.distributed.transport.SocketTransport`); without
        ``nodes`` the workers are forked locally, which needs ``os.fork``.
    transport:
        Accepted for compatibility; ``"socket"`` is the only wire and the
        only legal value.
    nodes:
        ``"host:port"`` strings (or ``(host, port)`` pairs) of running
        ``repro-node`` agents to host the process-backed workers instead of
        forking them locally.  Worker slots are staggered so a shard's
        primary and its replicas land on different nodes whenever there are
        at least two.
    replicas:
        Replica workers per shard (default 0).  Ingest batches are mirrored
        to every replica before the primary's failure could even be
        observed, so a dead primary fails over with zero lost updates:
        queries retry transparently against the promoted replica under a
        bumped map epoch.  A shard whose primary *and* replicas are all
        dead raises :class:`~repro.distributed.worker.WorkerCrash` and
        leaves the epoch untouched.
    track_reductions:
        Forwarded to every shard's :class:`~repro.core.HierarchicalMatrix`
        (default True): maintains each shard's incremental reduction
        vectors, served globally through :attr:`incremental`.

    Examples
    --------
    >>> import numpy as np
    >>> S = ShardedHierarchicalMatrix(2, cuts=[100, 1000])
    >>> S.update([1, 2, 3], [4, 5, 6], 1.0).update(1, 4, 2.0)
    <ShardedHierarchicalMatrix 4294967296x4294967296 FP64, shards=2, partition='hash', updates=4>
    >>> S.get(1, 4)
    3.0
    >>> S.materialize().nvals
    3
    """

    def __init__(
        self,
        nshards: int,
        nrows: int = 2 ** 32,
        ncols: int = 2 ** 32,
        dtype="fp64",
        *,
        cuts: Optional[Sequence[int]] = None,
        accum: Union[BinaryOp, str, None] = None,
        partition: str = "hash",
        use_processes: bool = False,
        transport: str = "socket",
        nodes: Optional[Sequence] = None,
        replicas: int = 0,
        track_reductions: bool = True,
        name: str = "",
    ):
        if transport != "socket":
            raise ValueError(
                f"unknown transport {transport!r}: the queue and shared-memory "
                "ring wires were removed; process-backed shards always use the "
                "socket wire (transport='socket')"
            )
        self._router = ShardRouter(
            nshards, nrows=nrows, ncols=ncols, partition=partition
        )
        self._dtype: DataType = lookup_dtype(dtype)
        accum_name = accum if isinstance(accum, str) else (
            accum.name if accum is not None else None
        )
        self._accum = binary[accum_name] if accum_name is not None else binary.plus
        matrix_kwargs = {
            "nrows": int(nrows),
            "ncols": int(ncols),
            "dtype": self._dtype.name,
            "track_reductions": bool(track_reductions),
        }
        if cuts is not None:
            matrix_kwargs["cuts"] = [int(c) for c in cuts]
        if accum_name is not None:
            matrix_kwargs["accum"] = accum_name
        self._pool = ShardWorkerPool(
            nshards,
            matrix_kwargs=matrix_kwargs,
            use_processes=use_processes,
            nodes=list(nodes) if nodes is not None else None,
            replicas=replicas,
        )
        self._incremental = ShardedIncrementalReductions(self)
        self._total_updates = 0
        self._batches = 0
        self.name = name

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def nshards(self) -> int:
        """Number of shards K."""
        return self._router.nshards

    @property
    def nrows(self) -> int:
        """Number of rows of the logical matrix."""
        return self._router.nrows

    @property
    def ncols(self) -> int:
        """Number of columns of the logical matrix."""
        return self._router.ncols

    @property
    def shape(self) -> Tuple[int, int]:
        """``(nrows, ncols)``."""
        return (self._router.nrows, self._router.ncols)

    @property
    def dtype(self) -> DataType:
        """Value type of every shard."""
        return self._dtype

    @property
    def accum(self) -> BinaryOp:
        """The combining operator every shard applies to duplicate coordinates."""
        return self._accum

    @property
    def partition(self) -> str:
        """Partitioning strategy in force (``"hash"`` or ``"range"``)."""
        return self._router.partition

    @property
    def transport(self) -> str:
        """Worker wire in force: ``"inproc"`` when ``use_processes=False``,
        else ``"socket"``."""
        return self._pool.transport_name

    @property
    def replicas(self) -> int:
        """Replica workers mirroring each shard (0 = no replication)."""
        return self._pool.replicas

    @property
    def router(self) -> ShardRouter:
        """The coordinate router (deterministic per shape/partition/epoch)."""
        return self._router

    @property
    def partition_map(self) -> PartitionMap:
        """The epoch-versioned partition map currently routing batches."""
        return self._router.map

    @property
    def map_epoch(self) -> int:
        """Partition-map epoch (0 until the first completed rebalance)."""
        return self._router.epoch

    @property
    def total_updates(self) -> int:
        """Element updates routed so far."""
        return self._total_updates

    @property
    def batches_ingested(self) -> int:
        """Stream batches routed so far."""
        return self._batches

    @property
    def nvals(self) -> int:
        """Exact number of logical entries.

        Served from the incremental trackers when available (no materialize,
        no flush); otherwise falls back to materialising across shards.
        """
        inc = self.incremental
        if inc.fan_supported:
            return inc.nnz()
        return self.materialize().nvals

    @property
    def incremental(self) -> ShardedIncrementalReductions:
        """Cross-shard view of the incrementally maintained reductions.

        Check :attr:`ShardedIncrementalReductions.supported` (and
        ``fan_supported`` for fan/nnz) before querying; the analytics layer
        does so automatically and falls back to materialize-based reductions.
        The view is cached — its support flags are fetched from the workers
        once, since they are a pure function of the shard configuration.
        """
        return self._incremental

    # ------------------------------------------------------------------ #
    # failover-aware dispatch (PR 7)
    # ------------------------------------------------------------------ #

    def _failover(self, shard: int) -> None:
        """Promote ``shard``'s replica and publish the next map epoch.

        The promotion changes no interval ownership — the shard index keeps
        its slabs, only the worker slot behind it changes — so the new map is
        :meth:`PartitionMap.advance`: identical intervals, ``epoch + 1``.
        The bump is the externally observable failover fence (batches and
        queries after it run against the promoted replica).  Raises
        :class:`WorkerCrash` without touching the epoch when no live replica
        exists.
        """
        self._pool.promote(shard)
        self._router.install(self._router.map.advance())
        self._incremental.invalidate()

    def _request(self, shard: int, cmd: str, payload=None, *, mirrored=False):
        """One reply-bearing command with crash failover.

        A plain :class:`WorkerCrash` means the command itself raised — the
        worker keeps serving, so the error propagates unchanged (the
        pre-replication contract).  :class:`WorkerDied` — the wire's own
        death signal, raised only from stream EOF or a failed send, so it
        cannot be confused with a surviving worker's error (and unlike an
        after-the-fact pid poll it cannot race with the process still
        tearing down) — triggers :meth:`_failover` and one
        retry against the promoted replica.  ``mirrored=True`` routes
        state-mutating commands through
        :meth:`ShardWorkerPool.request_mirrored`; after a failover those are
        *not* resent — the promoted replica already executed the command
        through its mirror leg, so a resend would apply it twice — and
        ``None`` is returned (mirrored callers ignore results).
        """
        send = self._pool.request_mirrored if mirrored else self._pool.request
        try:
            return send(shard, cmd, payload)
        except WorkerDied:
            self._failover(shard)
            if mirrored:
                return None
            return self._pool.request(shard, cmd, payload)

    def _request_all(self, cmd: str, payload=None, *, mirrored=False):
        """``cmd`` to every shard with per-shard crash failover.

        The non-mirrored path keeps the pool's pipelining (submit everywhere,
        then collect in order); a shard whose primary died mid-round fails
        over and re-runs just its own command.  Every shard's reply is read
        before the first failure is raised: a reply left queued would answer
        that shard's next command.  Mirrored rounds (``clear``) are
        sequential — they are never on the hot path.
        """
        if mirrored:
            return [
                self._request(s, cmd, payload, mirrored=True)
                for s in range(self.nshards)
            ]
        for s in range(self.nshards):
            self._pool.submit(s, cmd, payload)
        results, error = [], None
        for s in range(self.nshards):
            try:
                try:
                    results.append(self._pool.collect(s))
                except WorkerDied:
                    self._failover(s)
                    results.append(self._pool.request(s, cmd, payload))
            except WorkerCrash as exc:
                error = error or exc
        if error is not None:
            raise error
        return results

    def missing_replicas(self) -> int:
        """Retired replica slots across all shards (0 = full failure budget).

        A slot is retired when its worker died (a failed mirror send, a
        promoted-away primary, a killed node) and stays retired until
        :meth:`resync_replica` restores it.  The rejoin supervisor
        (:class:`~repro.service.AutoRejoiner`) polls this as its cheap
        no-work check.
        """
        return sum(self._pool.missing_replicas(s) for s in range(self.nshards))

    def resync_replica(self, shard: int) -> Optional[int]:
        """Respawn and catch up one retired slot of ``shard``.

        Returns the slot re-registered as a replica, or ``None`` when the
        shard already has its full mirror set.  Raises when the retired
        slot cannot be respawned (its agent is still down) or the slab
        install failed — callers that retry on a schedule catch this and
        back off.
        """
        return self._pool.resync_replica(shard)

    def resync_replicas(self) -> int:
        """Respawn and catch up every retired replica slot; returns how many.

        Each resynchronised slot installs its primary's whole shard as one
        slab over the reply channel (see :meth:`ShardWorkerPool.resync_replica
        <repro.distributed.pool.ShardWorkerPool.resync_replica>`) before
        rejoining the mirror set, restoring the failure budget after a
        failover.
        """
        count = 0
        for s in range(self.nshards):
            while self._pool.resync_replica(s) is not None:
                count += 1
        return count

    # ------------------------------------------------------------------ #
    # streaming updates
    # ------------------------------------------------------------------ #

    def update(self, rows, cols, values=1, *, keys=None) -> "ShardedHierarchicalMatrix":
        """Route one batch of triples to its owning shards.

        ``values`` may be an array (one per coordinate) or a scalar broadcast
        over the batch; scalar row/col coordinates are accepted like
        :meth:`HierarchicalMatrix.update`.  Out-of-range coordinates raise
        immediately (they have no owning shard).  Shard-local update time is
        accumulated worker-side; see :meth:`finalize` / :meth:`reports`.
        Whenever the shape packs, the router's keys are what travels — over
        the wire and into the in-process shards — and the workers append
        them to their layer-1 arenas as they are, so each batch is packed
        exactly once.  ``keys`` may carry the batch's coordinates already
        packed under the router's split (aligned with ``rows``) — the
        gateway passes the keys it decoded off its client wire, making the
        whole gateway path one pack per update.
        """
        r = K.as_index_array(rows, "rows")
        c = K.as_index_array(cols, "cols")
        if r.size != c.size:
            raise DimensionMismatch(
                f"row and column index arrays differ in length ({r.size} vs {c.size})"
            )
        if r.size == 0:
            return self
        if int(r.max()) >= self.nrows or int(c.max()) >= self.ncols:
            raise InvalidIndex(
                f"coordinate batch exceeds the {self.nrows}x{self.ncols} shape"
            )
        scalar = np.isscalar(values) or (
            isinstance(values, np.ndarray) and values.ndim == 0
        )
        v = None if scalar else np.asarray(values)
        if v is not None and v.size != r.size:
            raise DimensionMismatch(
                f"values length {v.size} does not match index length {r.size}"
            )
        if keys is not None:
            keys = np.asarray(keys, dtype=np.uint64)
            if keys.size != r.size:
                raise DimensionMismatch(
                    f"keys length {keys.size} does not match index length {r.size}"
                )
        shard, keys = self._router.route(r, c, keys=keys)
        for s in range(self.nshards):
            mask = shard == s
            if not mask.any():
                continue
            sub_values = values if v is None else v[mask]
            try:
                self._pool.submit_ingest(
                    s,
                    r[mask],
                    c[mask],
                    sub_values,
                    keys=None if keys is None else keys[mask],
                )
            except WorkerDied:
                # A dead primary's batch is NOT resent: submit_ingest
                # mirrors to every replica before re-raising the primary's
                # failure, so the promoted replica already holds it (this is
                # the zero-lost-updates invariant).  A live primary raising
                # (e.g. a coordinate rejection) propagates unchanged.
                self._failover(s)
        self._total_updates += int(r.size)
        self._batches += 1
        return self

    def ingest(self, batches, *, max_batches: Optional[int] = None) -> int:
        """Route an entire stream; returns the number of updates ingested.

        ``batches`` may yield :class:`~repro.workloads.powerlaw.EdgeBatch`,
        :class:`~repro.workloads.traffic.PacketBatch`, or plain
        ``(rows, cols[, values])`` tuples — the same protocol as
        :meth:`IngestSession.run <repro.workloads.stream.IngestSession.run>`.
        """
        before = self._total_updates
        count = 0
        for batch in batches:
            if max_batches is not None and count >= max_batches:
                break
            rows, cols, values = normalize_batch(batch)
            self.update(rows, cols, values)
            count += 1
        return self._total_updates - before

    def finalize(self) -> List[dict]:
        """Barrier: drain every shard's wire and force its deferred flush.

        The flush happens inside each worker's timed section, so per-shard
        ``elapsed_seconds`` afterwards reflect the full ingest cost.  Returns
        one ``{"total_updates", "elapsed_seconds"}`` dict per shard.
        """
        return self._request_all("finalize")

    # ------------------------------------------------------------------ #
    # live rebalancing (PR 5)
    # ------------------------------------------------------------------ #

    def shard_loads(self, by: str = "nnz") -> List[float]:
        """Per-shard load under one metric (served without materialising).

        ``by="nnz"`` reads each shard's exact stored-entry count from its
        incremental tracker; ``by="traffic"`` reads the total observed update
        weight.  When the tracker cannot serve the metric (non-``plus``
        accumulators, unpackable shapes) both fall back to the per-shard
        materialised entry count — *not* the routed-update counters, which
        migration never transfers and which would therefore keep reporting a
        drained shard as loaded.
        """
        return self._shard_loads_with_units(by)[0]

    def _shard_loads_with_units(self, by: str) -> Tuple[List[float], str]:
        """Loads plus the metric actually measured (``"nnz"`` after a
        traffic fallback), so the migration cut weighs entries in the same
        units the loads were."""
        if by not in ("nnz", "traffic"):
            raise InvalidValue(f"load metric must be 'nnz' or 'traffic', got {by!r}")
        stats = self._request_all("stats")
        if by == "traffic" and all(s["supported"] for s in stats):
            return [float(s["total"]) for s in stats], "traffic"
        if by == "nnz" and all(s["fan_supported"] for s in stats):
            return [float(s["nnz"]) for s in stats], "nnz"
        return (
            [float(r.final_nvals) for r in self._request_all("report")],
            "nnz",
        )

    @staticmethod
    def _imbalance(loads: Sequence[float]) -> float:
        total = float(sum(loads))
        if total <= 0.0:
            return 1.0
        return max(loads) / (total / len(loads))

    def imbalance(self, by: str = "nnz") -> float:
        """``max(load) / mean(load)`` across shards (1.0 is perfectly even)."""
        return self._imbalance(self.shard_loads(by))

    def ingest_pressure(self) -> float:
        """Worst ingest-wire fill fraction across worker slots (0..1).

        Surfaces the wire watermarks (kernel send-queue bytes over the send
        buffer size) so the service layer can derive admission control from
        real wire state instead of guessing.  0.0 when the wire
        has no signal or the shards are in-process.
        """
        return self._pool.ingest_pressure()

    def rebalance(
        self,
        source: Optional[int] = None,
        dest: Optional[int] = None,
        *,
        by: str = "nnz",
        fraction: float = 0.5,
        threshold: Optional[float] = None,
    ) -> Optional[RebalanceReport]:
        """Migrate one slab from an overloaded to an underloaded live shard.

        Without arguments this is the auto-policy: measure per-shard loads
        from the PR-3 incremental trackers (metric ``by``), pick the most
        loaded shard as ``source`` and the least loaded as ``dest``, and move
        a slab containing roughly ``fraction`` of their load difference.
        Pass ``threshold`` to make the call a no-op (returning ``None``)
        while ``imbalance() <= threshold``; pass explicit ``source``/``dest``
        for manual placement.  Repeated calls converge: each migration moves
        half the remaining max-min gap.

        The stream never stops.  The protocol rides the wire's barrier
        ordering, so in-flight batches routed under the old epoch land
        before the slab is cut:

        1. ``extract_slab`` on the source — a reply-bearing barrier command
           that *copies* the chosen slab (packed keys + raw value bits) out
           of the source's matrix without removing anything;
        2. ``install_slab`` on the destination — applies the slab and lets
           the destination's incremental tracker observe it (for the one
           tracker-supported accumulator, ``plus``, a slab's tracker state
           is exactly its combined triples, so shipping the triples ships
           the tracker split);
        3. ``discard_slab`` on the source — removes the slab and rebuilds
           the source tracker from the retained triples;
        4. only then is the new map epoch published parent-side, so every
           subsequent batch routes to the new owner.

        With ``replicas > 0`` *every* step is mirrored to the touched
        shard's replica legs (the commands are reply-bearing, so each leg's
        barrier fences its in-flight mirrored ingest too): the source's
        replicas execute the extract (a pure copy — its only mirror-side
        effect is the barrier) and the discard, the destination's replicas
        execute the install, so the migration leaves every replica
        bit-identical to its primary with no post-hoc resync.  A failover
        landing at any point therefore promotes a replica that already
        reflects exactly the migration steps its primary completed.

        A crash at any step leaves the previous epoch in force with no
        coordinate orphaned or double-owned on any leg: before step 3 the
        source still holds the authoritative copy (a failed install is
        compensated by discarding the copy from the destination *and its
        mirrors*), and after step 3 the destination does.
        :class:`WorkerCrash` propagates to the caller.  After the epoch is
        published the touched shards' failure budgets are re-checked: a
        replica retired along the way is resynchronised in place, and a
        budget that cannot be restored raises :class:`WorkerCrash` loudly
        instead of leaving the shard silently under-replicated.

        Returns a :class:`RebalanceReport`, or ``None`` when there is
        nothing to do (single shard, imbalance under ``threshold``, or an
        empty source).
        """
        if self.nshards < 2:
            return None
        if not 0.0 < float(fraction) <= 1.0:
            raise InvalidValue(f"fraction must be in (0, 1], got {fraction}")
        loads, units = self._shard_loads_with_units(by)
        imbalance = self._imbalance(loads)
        if threshold is not None and imbalance <= float(threshold):
            return None
        if source is None:
            source = int(np.argmax(loads))
        source = int(source)
        if dest is None:
            dest = min(
                (load, s) for s, load in enumerate(loads) if s != source
            )[1]
        dest = int(dest)
        if source == dest:
            raise InvalidValue("rebalance source and dest must differ")
        if not (0 <= source < self.nshards and 0 <= dest < self.nshards):
            raise InvalidIndex(f"shard index out of range for {self.nshards} shards")
        # The target is expressed in the policy metric's own units (entries
        # for "nnz", summed |value| for "traffic") and the worker cuts the
        # slab by the same weight, so a weighted stream moves ~fraction of
        # the load gap rather than a mistranslated entry count.
        target = (loads[source] - loads[dest]) * float(fraction)
        if target <= 0:
            return None
        intervals = self._router.map.shard_intervals(source)
        if not intervals:
            return None
        extract = {
            "partition": self.partition,
            "intervals": intervals,
            "target": target,
            "weight": "value" if units == "traffic" else "count",
        }
        # Mirrored: the extract is a pure copy, so its replica legs change no
        # state — but as a reply-bearing barrier it pins every mirror to the
        # same stream position before any migration mutation, and it retires
        # unhealthy replicas *before* install/discard could diverge them.
        reply = self._request(source, "extract_slab", extract, mirrored=True)
        while reply is None:
            # The source failed over mid-extract.  Mirrored commands are
            # never resent through the same call (a promoted replica already
            # ran its mirror leg), but the extract's reply carried the slab —
            # re-requesting it is safe because the copy is idempotent and the
            # promoted replica holds identical logical content (same batches,
            # same mirrored mutations), hence the identical deterministic
            # cut.  Each retry consumes a replica; promote() raises
            # WorkerCrash when the budget is exhausted, bounding the loop.
            reply = self._request(source, "extract_slab", extract, mirrored=True)
        if reply["count"] == 0:
            return None
        lo, hi = reply["lo"], reply["hi"]
        discard = {"partition": self.partition, "lo": lo, "hi": hi}
        try:
            self._request(dest, "install_slab", reply["slab"], mirrored=True)
        except Exception:
            # The source still holds the authoritative copy; best-effort
            # removal of whatever the destination applied keeps the old
            # epoch exact if the destination survived its error.
            self._discard_quietly(dest, discard)
            raise
        try:
            self._request(source, "discard_slab", discard, mirrored=True)
        except Exception:
            # Undo the install so the old epoch stays the single-owner map.
            self._discard_quietly(dest, discard)
            raise
        self._router.install(self._router.map.assign(lo, hi, dest))
        self._incremental.invalidate()
        if self._pool.replicas:
            self._ensure_replica_budget((source, dest))
        return RebalanceReport(
            epoch=self.map_epoch,
            source=source,
            dest=dest,
            moved=int(reply["count"]),
            slab=(int(lo), int(hi)),
            loads_before=tuple(loads),
            imbalance_before=imbalance,
        )

    def _ensure_replica_budget(self, shards) -> None:
        """Restore (or loudly fail on) any replica retired around a migration.

        A replica that failed a mirrored migration leg is retired so it can
        never be promoted with divergent state — but leaving it retired
        *silently* would hand the next failover a reduced budget nobody
        asked for.  Each touched shard is resynchronised in place (a
        whole-shard slab over the reply channel); if the budget cannot
        be restored — the slot's agent is still down — the migration
        surfaces it as :class:`WorkerCrash` rather than returning success
        over an under-replicated shard.  The published epoch stays valid
        either way: the migration itself completed on every surviving leg.
        """
        for s in dict.fromkeys(int(x) for x in shards):
            try:
                while self._pool.resync_replica(s) is not None:
                    pass
            except WorkerCrash:
                raise
            except Exception as exc:
                raise WorkerCrash(
                    f"shard {s} is under-replicated after a migration and "
                    f"resync failed: {exc}"
                ) from exc

    def _discard_quietly(self, shard: int, discard: dict) -> None:
        """Best-effort compensation; the shard may already be dead.

        Mirrored so the shard's replicas drop the slab too — an install that
        reached the replica legs before the primary failed must not leave
        the mirrors holding entries the authoritative copy never kept.
        """
        with contextlib.suppress(Exception):
            self._pool.request_mirrored(shard, "discard_slab", discard)

    # ------------------------------------------------------------------ #
    # global queries
    # ------------------------------------------------------------------ #

    def materialize(self) -> Matrix:
        """Merge every shard into one hypersparse matrix.

        Shards own pairwise-disjoint coordinate sets, so the merge never
        combines values across shards and the result is exactly the matrix a
        single flat :class:`~repro.core.HierarchicalMatrix` would produce from
        the same stream.
        """
        triples = self._request_all("materialize")
        rows = np.concatenate([t[0] for t in triples])
        cols = np.concatenate([t[1] for t in triples])
        vals = np.concatenate([t[2] for t in triples])
        out = Matrix(self._dtype, self.nrows, self.ncols, name=f"{self.name}merged")
        if rows.size:
            out.build(
                rows,
                cols,
                vals.astype(self._dtype.np_type, copy=False),
                dup_op=self._accum,
            )
        return out

    def get(self, row: int, col: int, default=None):
        """Read one logical element from the shard that owns it."""
        r = K.as_index_array([row], "row")
        c = K.as_index_array([col], "col")
        shard = int(self._router.shard_of(r, c)[0])
        value = self._request(shard, "get", (int(row), int(col)))
        return default if value is None else value

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2:
            return self.get(int(key[0]), int(key[1]))
        raise TypeError("ShardedHierarchicalMatrix indexing requires a (row, col) pair")

    def __contains__(self, key) -> bool:
        return self.get(int(key[0]), int(key[1])) is not None

    def _reduce(self, axis: str, op) -> Vector:
        op_name = op if isinstance(op, str) else getattr(op, "name", "plus")
        partials = self._request_all("reduce", (axis, op_name))
        from ..graphblas.monoid import monoid

        dup_op = monoid[op_name].op
        size = self.nrows if axis == "row" else self.ncols
        out = Vector(self._dtype, size)
        for indices, vals in partials:
            if indices.size:
                out.build(indices, vals, dup_op=dup_op)
        return out

    def reduce_rowwise(self, op="plus") -> Vector:
        """Row reduction merged across shards (monoid ``op``, default plus).

        Each shard reduces the rows it stores; the partial vectors are merged
        with the same monoid.  Hash partitioning spreads one row over many
        shards, so cross-shard merging is what makes the result global.
        """
        return self._reduce("row", op)

    def reduce_columnwise(self, op="plus") -> Vector:
        """Column reduction merged across shards (monoid ``op``, default plus)."""
        return self._reduce("col", op)

    # ------------------------------------------------------------------ #
    # measurement and lifecycle
    # ------------------------------------------------------------------ #

    def reports(self) -> List[WorkerReport]:
        """Per-shard measurement snapshots (updates, timed seconds, rate)."""
        return self._request_all("report")

    @property
    def aggregate_rate_sum(self) -> float:
        """Sum of per-shard measured rates — the paper's aggregation."""
        return float(sum(r.updates_per_second for r in self.reports()))

    def clear(self) -> "ShardedHierarchicalMatrix":
        """Empty every shard and reset the routed-update counters."""
        self._request_all("clear", mirrored=True)
        self._total_updates = 0
        self._batches = 0
        return self

    def close(self) -> None:
        """Shut the worker pool down; the matrix is unusable afterwards."""
        self._pool.close()

    def __enter__(self) -> "ShardedHierarchicalMatrix":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<ShardedHierarchicalMatrix{label} {self.nrows}x{self.ncols} "
            f"{self._dtype.name}, shards={self.nshards}, "
            f"partition={self.partition!r}, updates={self._total_updates}>"
        )
