"""Epoch-versioned partition maps: shard ownership as mutable, fenced state.

PRs 2-4 baked one assumption into every layer of the sharded engine: *which
shard owns a coordinate is a pure function of ``(row, col)``*.  That is what
made the engine shippable — disjoint ownership in stream order is the whole
bit-identity argument — but it also froze the initial partition forever.  The
paper's power-law workloads concentrate their hot rows on a few range-partition
slabs, and real traffic is non-stationary, so the ROADMAP's top open item was
moving data between *live* workers without stopping the stream.

This module weakens the assumption exactly as far as necessary: shard
ownership becomes a pure function of ``(row, col)`` *and a map epoch*.  A
:class:`PartitionMap` is an interval map over a single 64-bit **partition-key
space** shared by both partitioning strategies:

* ``partition="range"`` — the partition key is the PR-1 packed coordinate key
  ``(row << col_bits) | col`` itself (rows, for shapes with no 64-bit split),
  so contiguous slabs preserve locality;
* ``partition="hash"`` — the partition key is ``splitmix64`` of the packed
  key (or of the mixed raw coordinates).  The hash output is uniform, so
  contiguous slabs of the *hashed* space are load-balanced — and, crucially,
  "rehashing" between shards becomes the same operation as moving a range
  slab: reassigning an interval of the hashed key space.

Both strategies therefore share one migration mechanism: pick an interval,
move the matching stored triples, publish a new map with ``epoch + 1``.  The
map lives in the routing parent; workers only ever see concrete ``[lo, hi)``
slabs (:func:`partition_keys` is the shared, toggle-independent helper both
sides use to decide membership, so router and worker can never disagree about
what a slab contains).

Epoch fencing: the router routes every batch under exactly one epoch, and
migration commands are reply-bearing — in every worker mode they act as
barriers against in-flight ingest (on the socket wire because a byte stream
cannot reorder).  A new epoch is published only after the slab has been
extracted, installed, and discarded, so each coordinate is owned by exactly
one shard at every epoch and lands there in stream order.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..graphblas import coords
from ..graphblas.errors import InvalidValue
from ..workloads.powerlaw import _splitmix64

__all__ = [
    "PartitionMap",
    "partition_keys",
    "partition_keyspace",
    "interval_mask",
    "PARTITION_NAMES",
]

#: Partitioning strategies understood by the router, the map, and the workers.
PARTITION_NAMES = ("hash", "range")

_KEYSPACE_MAX = 2 ** 64


def partition_keys(
    rows: np.ndarray,
    cols: np.ndarray,
    partition: str,
    spec: Optional[coords.PackedSpec],
    *,
    keys: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Partition key of each coordinate pair (the domain of the map).

    ``spec`` must be the shape's :func:`repro.graphblas.coords.shape_split`
    (toggle independent, so the result never depends on the packing flag) and
    ``keys`` may carry the coordinates already packed under it.  Routing
    parent and shard workers both call this, which is what guarantees they
    agree on slab membership.
    """
    if spec is not None:
        if keys is None:
            keys = coords.pack(rows, cols, spec)
        return _splitmix64(keys) if partition == "hash" else keys
    if partition == "hash":
        with np.errstate(over="ignore"):
            return _splitmix64(rows + _splitmix64(cols))
    return rows.astype(np.uint64, copy=False)


def partition_keyspace(partition: str, spec: Optional[coords.PackedSpec], nrows: int) -> int:
    """Size of the partition-key space ``[0, keyspace)`` for one configuration.

    Hash partitions span the full hashed 2^64; range partitions span the
    *occupied* packed-key space ``nrows << col_bits`` (or the row space for
    unpackable shapes) so small shapes still balance across shards.
    """
    if partition == "hash":
        return _KEYSPACE_MAX
    if spec is not None:
        return int(nrows) << spec.col_bits
    return int(nrows)


def interval_mask(pkeys: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Boolean mask of partition keys inside ``[lo, hi)``.

    ``hi`` may be the full ``2**64`` keyspace bound, which does not fit a
    ``uint64`` — an unbounded upper end is handled explicitly instead of
    overflowing.
    """
    if lo <= 0:
        mask = np.ones(pkeys.size, dtype=bool)
    else:
        mask = pkeys >= np.uint64(lo)
    if hi < _KEYSPACE_MAX:
        mask &= pkeys < np.uint64(hi)
    return mask


class PartitionMap:
    """Epoch-versioned interval map ``partition key -> owning shard``.

    The keyspace ``[0, keyspace)`` is covered by ``m`` contiguous,
    non-overlapping intervals, each owned by one shard.  Routing is one
    binary search (``searchsorted`` over the ``m - 1`` interior boundaries),
    so with the initial ``m == nshards`` uniform map the cost matches the
    old closed-form division — and stays logarithmic in the number of
    migrated slabs afterwards.

    Maps are immutable: :meth:`assign` returns a *new* map with ``epoch + 1``.
    The router installs a new map only after a migration completed, so every
    batch is routed under exactly one well-defined epoch.

    Parameters
    ----------
    nshards:
        Number of shards the owner values range over.
    keyspace:
        Exclusive upper bound of the key domain (up to ``2**64``).
    interior:
        Sorted interior interval boundaries (``m - 1`` values, each in
        ``(0, keyspace)``); interval ``i`` is ``[interior[i-1], interior[i])``.
    owners:
        Owning shard per interval (``m`` values).
    epoch:
        Version counter; bumped by :meth:`assign`.
    """

    def __init__(
        self,
        nshards: int,
        keyspace: int,
        *,
        interior: Optional[np.ndarray] = None,
        owners: Optional[np.ndarray] = None,
        epoch: int = 0,
    ):
        self._nshards = int(nshards)
        self._keyspace = int(keyspace)
        if self._nshards < 1:
            raise InvalidValue("nshards must be >= 1")
        if not 1 <= self._keyspace <= _KEYSPACE_MAX:
            raise InvalidValue(f"keyspace must be in [1, 2**64], got {keyspace}")
        if interior is None:
            interior = np.empty(0, dtype=np.uint64)
        if owners is None:
            owners = np.zeros(1, dtype=np.int64)
        self._interior = np.ascontiguousarray(interior, dtype=np.uint64)
        self._owners = np.ascontiguousarray(owners, dtype=np.int64)
        if self._owners.size != self._interior.size + 1:
            raise InvalidValue(
                f"{self._owners.size} owners do not fit "
                f"{self._interior.size} interior boundaries"
            )
        if self._interior.size:
            if not np.all(self._interior[1:] > self._interior[:-1]):
                raise InvalidValue("interval boundaries must be strictly increasing")
            if int(self._interior[0]) == 0 or int(self._interior[-1]) >= self._keyspace:
                raise InvalidValue("interior boundaries must lie inside (0, keyspace)")
        if self._owners.size and (
            int(self._owners.min()) < 0 or int(self._owners.max()) >= self._nshards
        ):
            raise InvalidValue("interval owner out of shard range")
        self._epoch = int(epoch)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def uniform(cls, nshards: int, keyspace: int) -> "PartitionMap":
        """The epoch-0 map: the keyspace in ``nshards`` equal contiguous slabs.

        For range partitions this matches the pre-PR-5 closed-form routing
        exactly (ceil-division chunks with the top shard absorbing the
        remainder; regression-pinned), so a range matrix that never
        rebalances routes exactly as before.  Hash partitions deliberately
        change shape here: the old ``splitmix64(key) % K`` modulo assignment
        becomes contiguous slabs *of the hashed keyspace* — statistically
        identical load (the hash output is uniform) but interval-shaped
        ownership, which is precisely what lets hash shards migrate slabs
        with the same mechanism as range shards.  Shard placement was never
        part of the public contract (only disjointness and stream order
        are), so only the load properties carry over.
        """
        nshards = int(nshards)
        keyspace = int(keyspace)
        chunk = -(-keyspace // max(nshards, 1))  # ceil division
        interior = [i * chunk for i in range(1, nshards) if i * chunk < keyspace]
        owners = np.arange(len(interior) + 1, dtype=np.int64)
        return cls(
            nshards,
            keyspace,
            interior=np.asarray(interior, dtype=np.uint64),
            owners=owners,
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def nshards(self) -> int:
        """Number of shards owner values range over."""
        return self._nshards

    @property
    def keyspace(self) -> int:
        """Exclusive upper bound of the partition-key domain."""
        return self._keyspace

    @property
    def epoch(self) -> int:
        """Version of this map; each :meth:`assign` bumps it by one."""
        return self._epoch

    @property
    def interval_count(self) -> int:
        """Number of contiguous ownership intervals."""
        return self._owners.size

    def intervals(self) -> List[Tuple[int, int, int]]:
        """Every interval as ``(lo, hi, owner)`` with Python-int bounds."""
        bounds = [0] + [int(b) for b in self._interior] + [self._keyspace]
        return [
            (bounds[i], bounds[i + 1], int(self._owners[i]))
            for i in range(self._owners.size)
        ]

    def shard_intervals(self, shard: int) -> List[Tuple[int, int]]:
        """The ``[lo, hi)`` intervals currently owned by ``shard``."""
        return [(lo, hi) for lo, hi, o in self.intervals() if o == int(shard)]

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def owner_of(self, pkeys: np.ndarray) -> np.ndarray:
        """Owning shard of each partition key (vectorised, int64)."""
        idx = np.searchsorted(self._interior, pkeys, side="right")
        return self._owners[idx]

    def owner_of_point(self, pkey: int) -> int:
        """Owning shard of one partition key."""
        idx = int(np.searchsorted(self._interior, np.uint64(pkey), side="right"))
        return int(self._owners[idx])

    # ------------------------------------------------------------------ #
    # migration
    # ------------------------------------------------------------------ #

    def assign(self, lo: int, hi: int, shard: int) -> "PartitionMap":
        """A new map (``epoch + 1``) with ``[lo, hi)`` reassigned to ``shard``.

        Adjacent intervals with the same owner are coalesced, so the interval
        count stays bounded by the ownership fragmentation actually present
        rather than by the number of migrations ever performed.
        """
        lo, hi = int(lo), int(hi)
        if not 0 <= lo < hi <= self._keyspace:
            raise InvalidValue(
                f"slab [{lo}, {hi}) outside the [0, {self._keyspace}) keyspace"
            )
        shard = int(shard)
        if not 0 <= shard < self._nshards:
            raise InvalidValue(f"shard {shard} out of range for {self._nshards} shards")
        points = {0, self._keyspace, lo, hi}
        points.update(int(b) for b in self._interior)
        bounds = sorted(points)
        starts: List[int] = []
        owners: List[int] = []
        for a in bounds[:-1]:
            o = shard if lo <= a < hi else self.owner_of_point(a)
            if owners and owners[-1] == o:
                continue  # coalesce with the previous interval
            starts.append(a)
            owners.append(o)
        interior = np.asarray(starts[1:], dtype=np.uint64)
        return PartitionMap(
            self._nshards,
            self._keyspace,
            interior=interior,
            owners=np.asarray(owners, dtype=np.int64),
            epoch=self._epoch + 1,
        )

    def advance(self) -> "PartitionMap":
        """A new map with identical intervals and ``epoch + 1``.

        Failover promotion changes no interval ownership — the promoted
        replica answers for exactly the slabs its dead primary owned — but
        :meth:`ShardRouter.install` (correctly) refuses to re-install the
        current epoch, so promotion publishes this fence instead: same
        geometry, new version.
        """
        return PartitionMap(
            self._nshards,
            self._keyspace,
            interior=self._interior,
            owners=self._owners,
            epoch=self._epoch + 1,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<PartitionMap epoch={self._epoch} shards={self._nshards} "
            f"intervals={self.interval_count} keyspace={self._keyspace:#x}>"
        )
