"""Shard-worker state and command protocol, shared by every worker mode.

A shard worker owns a private :class:`~repro.core.HierarchicalMatrix` and
executes a small command protocol (see :mod:`repro.distributed.pool` for the
command reference).  This module holds everything that runs *identically*
regardless of how commands reach the worker — direct calls on an in-process
slot, or frames over the socket wire to a forked or agent-hosted process —
so every transport in :mod:`repro.distributed.transport` stays pure plumbing
around one :class:`CommandExecutor` per slot, and the conformance suite
(``tests/distributed/test_transport.py``) can assert that plumbing never
changes results.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..core import HierarchicalMatrix
from ..graphblas import Matrix
from ..graphblas.binaryop import binary
from .codec import BatchCodec
from .partition import interval_mask, partition_keys

__all__ = [
    "WorkerReport",
    "WorkerCrash",
    "WorkerDied",
    "ShardState",
    "CommandExecutor",
    "REPLY_COMMANDS",
    "KNOWN_COMMANDS",
    "INCREMENTAL_KINDS",
]


@dataclass(frozen=True)
class WorkerReport:
    """Result of one worker's measured ingest.

    Attributes
    ----------
    worker_id:
        0-based worker index.
    total_updates:
        Element updates streamed by this worker.
    elapsed_seconds:
        Wall-clock time spent inside ``update`` calls plus the forced final
        flush of deferred pending tuples.
    updates_per_second:
        This worker's measured rate.
    final_nvals:
        Logical entries in the worker's matrix (sanity check): the
        tracker's exact ``nnz`` where it tracks fans, else counted on the
        materialised matrix.
    cascades:
        Per-layer cascade counts.
    """

    worker_id: int
    total_updates: int
    elapsed_seconds: float
    updates_per_second: float
    final_nvals: int
    cascades: List[int] = field(default_factory=list)


class WorkerCrash(RuntimeError):
    """A shard worker raised (or died) while executing a command."""


class WorkerDied(WorkerCrash):
    """The worker *process* is gone (SIGKILL, OOM, node failure).

    Raised only from the wire's own death-detection paths (socket EOF or
    send failure), never from a worker-raised exception — so catching this,
    rather than polling pid liveness after the fact, is the race-free way to
    tell "the shard needs failover" from "the command failed but the worker
    survives".  A dying
    worker closes its wire *before* its pid disappears from the process
    table, so a liveness poll taken at crash time can still read alive.
    """


#: Commands that produce exactly one reply on the worker's reply channel.
REPLY_COMMANDS = frozenset(
    {
        "finalize",
        "report",
        "materialize",
        "get",
        "reduce",
        "stats",
        "reduce_incremental",
        "clear",
        "extract_slab",
        "install_slab",
        "discard_slab",
    }
)

#: Incremental reduction vectors servable by the ``reduce_incremental`` command.
INCREMENTAL_KINDS = frozenset({"row_traffic", "col_traffic", "row_fan", "col_fan"})

#: Every command a worker understands.  The pool validates against this
#: parent-side: an unknown *fire-and-forget* command would otherwise be
#: swallowed worker-side and only surface at some later reply.
KNOWN_COMMANDS = REPLY_COMMANDS | {"ingest", "stop"}


class ShardState:
    """One worker's state: a private hierarchical matrix plus ingest counters.

    :meth:`handle` runs one command and raises on failure; it is always
    driven through a :class:`CommandExecutor`, which turns those raises into
    the protocol's latched error replies.  The same pair runs inside a
    long-lived child process (forked or agent-hosted) and on an in-process
    slot (``use_processes=False``), so unit tests and single-core machines
    exercise the same command protocol without fork overhead.
    """

    def __init__(self, worker_id: int, matrix_kwargs: Optional[Dict[str, Any]] = None):
        kwargs = dict(matrix_kwargs or {})
        nrows = kwargs.pop("nrows", 2 ** 32)
        ncols = kwargs.pop("ncols", 2 ** 32)
        dtype = kwargs.pop("dtype", "fp64")
        accum = kwargs.pop("accum", None)
        if isinstance(accum, str):
            # Operators cross the process boundary by registry name.
            accum = binary[accum]
        self.worker_id = int(worker_id)
        self.matrix = HierarchicalMatrix(nrows, ncols, dtype, accum=accum, **kwargs)
        #: Decodes this shard's data frames and encodes its migrating slabs.
        self.codec = BatchCodec(nrows, ncols, self.matrix.dtype)
        # The toggle-independent shape split — identical to the router's, so
        # worker-side slab membership can never disagree with routing.
        self.spec = self.codec.spec
        self.done = 0
        self.elapsed = 0.0

    # -- command handlers ------------------------------------------------ #

    def handle(self, cmd: str, payload) -> Any:
        if cmd == "ingest":
            start = time.perf_counter()
            self.done += self._apply(payload)
            self.elapsed += time.perf_counter() - start
            return None
        if cmd == "finalize":
            start = time.perf_counter()
            self.matrix.wait()
            self.elapsed += time.perf_counter() - start
            return {"total_updates": self.done, "elapsed_seconds": self.elapsed}
        if cmd == "report":
            return self.report()
        if cmd == "materialize":
            return self.matrix.materialize().extract_tuples()
        if cmd == "get":
            row, col = payload
            return self.matrix.get(row, col, None)
        if cmd == "reduce":
            axis, op_name = payload
            flat = self.matrix.materialize()
            vec = (
                flat.reduce_rowwise(op_name)
                if axis == "row"
                else flat.reduce_columnwise(op_name)
            )
            return vec.to_coo()
        if cmd == "stats":
            inc = self.matrix.incremental
            return {
                "supported": inc.supported,
                "fan_supported": inc.fan_supported,
                "total": float(inc.total()) if inc.supported else None,
                "nnz": inc.nnz() if inc.fan_supported else None,
                "updates": self.done,
            }
        if cmd == "reduce_incremental":
            kind = payload
            if kind not in INCREMENTAL_KINDS:
                raise ValueError(f"unknown incremental reduction {kind!r}")
            inc = self.matrix.incremental
            if not inc.supported or (kind.endswith("fan") and not inc.fan_supported):
                return None
            return getattr(inc, kind)().to_coo()
        if cmd == "clear":
            self.matrix.clear()
            self.done = 0
            self.elapsed = 0.0
            return True
        if cmd == "extract_slab":
            return self._extract_slab(payload)
        if cmd == "install_slab":
            return self._install_slab(payload)
        if cmd == "discard_slab":
            return self._discard_slab(payload)
        raise ValueError(f"unknown worker command {cmd!r}")

    def _apply(self, batch) -> int:
        """Add one batch to the matrix; returns its size.

        ``(rows, cols, values)``, or ``(keys, values)`` when the sender
        already holds the batch packed under the shape split (the router's
        keys, a binary wire frame, a migrating slab): those go straight to
        the layer-1 arena.
        """
        if len(batch) == 2:
            self.matrix.update_packed(*batch)
        else:
            self.matrix.update(*batch)
        return int(batch[0].size)

    # -- live slab migration (PR 5) -------------------------------------- #
    #
    # These three commands implement the worker half of
    # ShardedHierarchicalMatrix.rebalance().  All of them are reply-bearing,
    # so in every worker mode they are barriers against in-flight ingest
    # batches: the slab the source cuts always reflects every batch routed
    # to it under the old map epoch.  extract_slab only *copies* — the
    # source stays authoritative until the coordinator has confirmed the
    # install and asked for the discard, which is what keeps a crash at any
    # step from orphaning or double-owning a coordinate.

    def _layer_keys(self, partition: str):
        """Yield each non-empty layer's ``(rows, cols, vals, partition keys)``.

        Every slab step reads the shard through here, one sorted layer at a
        time (``extract_tuples`` merges only that layer's own pending
        buffer), so none of them materialises the shard.
        """
        for layer in self.matrix.layers:
            rows, cols, vals = layer.extract_tuples()
            if rows.size:
                yield rows, cols, vals, partition_keys(rows, cols, partition, self.spec)

    def _combine(self, parts):
        """Combine per-layer ``(rows, cols, vals)`` pieces, given in layer
        order, with the hierarchy's own accumulator.

        The pieces are folded in one at a time, as
        :meth:`HierarchicalMatrix.materialize
        <repro.core.HierarchicalMatrix.materialize>` folds its layers: each
        piece is already sorted and duplicate-free, so every step is a merge
        of two sorted runs, and the values are bit-identical to cutting the
        materialised sum.
        """
        if len(parts) == 1:
            return parts[0]
        combined = Matrix(self.matrix.dtype, self.matrix.nrows, self.matrix.ncols)
        for rows, cols, vals in parts:
            combined.build(rows, cols, vals, dup_op=self.matrix.accum)
        return combined.extract_tuples()

    def _gather_slab(self, partition: str, lo: int, hi: int):
        """Combined ``[lo, hi)`` slab triples without materialising the shard.

        Only the *slab-sized* pieces of each layer are combined, so copying
        a small slab out of a large shard costs O(shard keys scanned + slab
        entries combined) instead of a full multi-layer merge.
        """
        lo, hi = int(lo), int(hi)
        parts = []
        for rows, cols, vals, pkeys in self._layer_keys(partition):
            mask = interval_mask(pkeys, lo, hi)
            if mask.any():
                parts.append((rows[mask], cols[mask], vals[mask]))
        return self._combine(parts)

    def _extract_slab(self, payload) -> Dict[str, Any]:
        """Choose and copy out one slab; the shard's content is unchanged.

        Because it mutates nothing and the cut below is a deterministic
        function of the shard's logical content, this command is idempotent
        across mirrors: the coordinator mirrors it to every replica as a
        stream barrier and, if the primary dies mid-extract, simply re-issues
        it to the promoted replica — which computes the *same* slab, since a
        mirror at the same stream position holds the same logical content.

        ``payload`` carries the partition kind plus either an explicit
        ``lo``/``hi`` interval or ``intervals`` (the partition-map intervals
        this shard owns) with a ``target`` load to move — then the cut is
        chosen here, where the key distribution is known: the busiest owned
        interval is found and its tail split off at the stored partition-key
        quantile whose suffix load is closest to (at most) ``target``.  Load
        is counted per the policy's metric: one unit per stored entry
        (``weight="count"``, the nnz policy) or the entry's absolute value
        (``weight="value"``, the traffic policy — exactly the units the
        coordinator's traffic loads are measured in).  Cuts land on whole
        keys only, so a hot coordinate is never split across shards.  The
        slab travels as :meth:`BatchCodec.encode
        <repro.distributed.codec.BatchCodec.encode>` output, the same
        ``(frame type, payload)`` an ingest frame carries.
        """
        partition = payload["partition"]
        target = payload.get("target")
        if target is None:
            lo, hi = int(payload["lo"]), int(payload["hi"])
        else:
            # Scan partition keys and weights per layer — no materialise.  A
            # coordinate stored in several layers contributes each layer's
            # weight separately; under ``plus`` (the only accumulator the
            # traffic policy meters) the value weights still sum exactly, and
            # count weights over-count such coordinates slightly — an
            # acceptable bias for what is already a load *heuristic*, while
            # the extracted slab content below stays exact.
            weight = payload.get("weight", "count")
            key_parts = []
            w_parts = []
            for _, _, lv, lkeys in self._layer_keys(partition):
                key_parts.append(lkeys)
                if weight == "value":
                    w_parts.append(np.abs(lv.astype(np.float64, copy=False)))
                else:
                    w_parts.append(np.ones(lkeys.size, dtype=np.float64))
            if key_parts:
                pkeys = np.concatenate(key_parts)
                all_w = np.concatenate(w_parts)
            else:
                pkeys = np.empty(0, dtype=np.uint64)
                all_w = np.empty(0, dtype=np.float64)
            # Pick the heaviest owned interval *in the policy's own units*:
            # under the traffic policy a few huge-value entries outweigh a
            # crowd of light ones, and cutting the crowded interval instead
            # would move almost none of the load gap.
            best = None
            for cand_lo, cand_hi in payload["intervals"]:
                in_interval = interval_mask(pkeys, int(cand_lo), int(cand_hi))
                load = float(all_w[in_interval].sum())
                if best is None or load > best[0]:
                    best = (load, int(cand_lo), int(cand_hi), in_interval)
            _, int_lo, hi, in_interval = best
            n_in = int(in_interval.sum())
            if n_in == 0 or target <= 0:
                return {"lo": int_lo, "hi": hi, "count": 0, "slab": None}
            sel = np.flatnonzero(in_interval)
            order = np.argsort(pkeys[sel], kind="stable")
            sorted_keys = pkeys[sel][order]
            w = all_w[sel][order]
            # suffix[i] = load of the candidate slab starting at entry i;
            # move the longest suffix whose load does not exceed the target
            # (for unit weights this is exactly the old "tail of `target`
            # entries" cut), then widen left to a whole-key boundary.
            suffix = np.cumsum(w[::-1])[::-1]
            i = int(np.searchsorted(-suffix, -float(target), side="left"))
            if i >= n_in:
                return {"lo": int_lo, "hi": hi, "count": 0, "slab": None}
            while i > 0 and sorted_keys[i - 1] == sorted_keys[i]:
                i -= 1
            lo = int(sorted_keys[i])
        rows, cols, vals = self._gather_slab(partition, lo, hi)
        count = int(rows.size)
        if count == 0:
            return {"lo": lo, "hi": hi, "count": 0, "slab": None}
        return {
            "lo": lo,
            "hi": hi,
            "count": count,
            "slab": self.codec.encode(rows, cols, vals),
        }

    def _install_slab(self, slab) -> int:
        """Apply a migrated slab to this shard's matrix and tracker.

        The slab's coordinates were owned by the source, so under the
        disjoint-ownership invariant none of them are stored here: the
        update is a pure insert, and the incremental tracker observing it
        is exactly the tracker state the slab carried on the source (for the
        ``plus`` accumulator — the only one the tracker supports — a
        coordinate's tracked contribution *is* its combined value).
        ``slab`` is ``None`` for an empty slab (a replica resynced from an
        empty primary), which installs nothing.  Deliberately not counted
        into the ingest measurement counters.
        """
        if slab is None:
            return 0
        batch = self.codec.decode(*slab)
        return self._apply(batch) if batch[0].size else 0

    def _discard_slab(self, payload) -> bool:
        """Drop the slab ``[lo, hi)``; returns whether it held any entry.

        Runs only after the coordinator confirmed the destination installed
        its copy.  Deterministic: membership is recomputed with the same
        shared :func:`partition_keys`, and no batch can have landed since
        the extract (the single routing thread publishes no new batches
        mid-migration), so exactly the extracted entries are removed.  Each
        layer is cut as :meth:`_gather_slab` cuts it, and the kept pieces go
        to :meth:`HierarchicalMatrix.reset_from_triples
        <repro.core.HierarchicalMatrix.reset_from_triples>`, which combines
        them in layer order and rebuilds the tracker from the result.
        """
        lo, hi = int(payload["lo"]), int(payload["hi"])
        kept = []
        hit = False
        for rows, cols, vals, pkeys in self._layer_keys(payload["partition"]):
            move = interval_mask(pkeys, lo, hi)
            if move.any():
                hit = True
                keep = ~move
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
            if rows.size:
                kept.append((rows, cols, vals))
        if hit:
            self.matrix.reset_from_triples(kept)
        return hit

    def report(self) -> WorkerReport:
        rate = self.done / self.elapsed if self.elapsed > 0 else 0.0
        inc = self.matrix.incremental
        # The tracker's exact nnz answers without a materialize.
        nvals = inc.nnz() if inc.fan_supported else self.matrix.materialize().nvals
        return WorkerReport(
            worker_id=self.worker_id,
            total_updates=self.done,
            elapsed_seconds=self.elapsed,
            updates_per_second=rate,
            final_nvals=nvals,
            cascades=list(self.matrix.stats.cascades),
        )


class CommandExecutor:
    """The error-latching reply protocol of the worker loop.

    Wraps a :class:`ShardState` (constructed here, so even a failing
    constructor is latched instead of crashing the loop) and owns the one
    piece of semantics the wire must never let drift: a command exception is
    captured as the *pending error*, fire-and-forget commands after it are
    skipped, and the next reply-bearing command delivers ``("error",
    traceback)`` — after which the worker resumes serving (unless
    construction itself failed, in which case every reply repeats the
    error).  The frame loop only decides *when* :meth:`execute` runs, never
    what it does.
    """

    def __init__(self, worker_id: int, matrix_kwargs, reply_channel) -> None:
        self._reply_channel = reply_channel
        self.state: Optional[ShardState] = None
        self._init_error: Optional[str] = None
        try:
            self.state = ShardState(worker_id, matrix_kwargs)
        except Exception:  # pragma: no cover - construction is trivial to satisfy
            self._init_error = traceback.format_exc()
        self.pending_error = self._init_error

    def ingest(self, ftype: Optional[int], payload) -> None:
        """Apply one fire-and-forget batch.

        ``payload`` is a data frame to decode first (``ftype`` its frame
        type, the socket path), or with ``ftype=None`` an already-decoded
        ``(rows, cols, values)`` / ``(keys, values)`` batch handed over
        in-process.  A frame that fails to decode, or a batch that fails to
        apply, is latched exactly like a command error.
        """
        if self.pending_error is not None:
            return
        try:
            if ftype is not None:
                payload = self.state.codec.decode(ftype, payload)
            self.state.handle("ingest", payload)
        except Exception:
            self.pending_error = traceback.format_exc()

    def execute(self, cmd: str, payload) -> None:
        """Run one command; emit its reply when the protocol promises one."""
        result = None
        if self.pending_error is None:
            try:
                result = self.state.handle(cmd, payload)
            except Exception:
                self.pending_error = traceback.format_exc()
        if cmd in REPLY_COMMANDS:
            if self.pending_error is not None:
                self._reply_channel.put(("error", self.pending_error))
                self.pending_error = self._init_error
            else:
                self._reply_channel.put(("ok", result))
