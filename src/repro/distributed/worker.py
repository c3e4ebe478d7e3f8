"""Shard-worker state and command protocol, shared by every worker mode.

A shard worker owns a private :class:`~repro.core.HierarchicalMatrix` and
executes a small command protocol (see :mod:`repro.distributed.pool` for the
command reference).  This module holds everything that runs *identically*
regardless of how commands reach the worker — in-process calls, or frames
over the socket wire to a forked or agent-hosted process — so the wire in
:mod:`repro.distributed.transport` stays pure plumbing and the conformance
suite (``tests/distributed/test_transport.py``) can assert that plumbing
never changes results.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core import HierarchicalMatrix
from ..core.checkpoint import checkpoint_bytes, load_checkpoint_bytes
from ..graphblas import Matrix, coords
from ..graphblas.binaryop import binary
from ..workloads.powerlaw import powerlaw_edges
from .node import ValueCodec
from .partition import interval_mask, partition_keys

__all__ = [
    "WorkerReport",
    "WorkerCrash",
    "WorkerDied",
    "ShardState",
    "CommandExecutor",
    "stream_powerlaw",
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
        Stored entries in the worker's materialised matrix (sanity check).
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


def stream_powerlaw(
    matrix: HierarchicalMatrix,
    worker_id: int,
    total_updates: int,
    batch_size: int,
    *,
    nnodes: int = 2 ** 32,
    alpha: float = 1.3,
    distinct_nodes: int = 2 ** 22,
    seed: Optional[int] = None,
) -> Tuple[int, float]:
    """Generate and stream exactly ``total_updates`` power-law edges.

    Returns ``(updates_streamed, timed_seconds)``.  Measured the way the paper
    measures: generation time is excluded (data resides in arrays before the
    timed insert), every ``update`` call is timed, the last batch is a partial
    batch when ``batch_size`` does not divide ``total_updates``, and the
    deferred layer-1 flush is forced *inside* the timed section so the
    reported rate pays for the sort/merge work the stream deferred.
    """
    rng_seed = (seed if seed is not None else 0) + worker_id * 1_000_003
    total = max(int(total_updates), 0)
    batch_size = max(int(batch_size), 1)
    elapsed = 0.0
    done = 0
    b = 0
    while done < total:
        n = min(batch_size, total - done)
        rows, cols = powerlaw_edges(
            n,
            alpha=alpha,
            nnodes=nnodes,
            distinct_nodes=distinct_nodes,
            seed=rng_seed + b,
        )
        values = np.ones(n, dtype=np.float64)
        start = time.perf_counter()
        matrix.update(rows, cols, values)
        elapsed += time.perf_counter() - start
        done += n
        b += 1
    start = time.perf_counter()
    matrix.wait()  # the deferred flush is ingest work, not query work
    elapsed += time.perf_counter() - start
    return done, elapsed


#: Commands that produce exactly one reply on the worker's reply channel.
REPLY_COMMANDS = frozenset(
    {
        "selfgen",
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
        "checkpoint",
        "restore",
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

    Runs identically inside a long-lived child process (forked or
    agent-hosted) and in-process (``use_processes=False``), so unit tests and
    single-core machines exercise the same command protocol without fork
    overhead.
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
        # The toggle-independent shape split — identical to the router's, so
        # worker-side slab membership can never disagree with routing.
        self.spec = coords.shape_split(int(nrows), int(ncols))
        self.done = 0
        self.elapsed = 0.0
        self.slabs_in = 0
        self.slabs_out = 0

    # -- command handlers ------------------------------------------------ #

    def handle(self, cmd: str, payload) -> Any:
        if cmd == "ingest":
            start = time.perf_counter()
            self.done += self._apply(payload)
            self.elapsed += time.perf_counter() - start
            return None
        if cmd == "selfgen":
            spec = dict(payload)
            done, elapsed = stream_powerlaw(
                self.matrix,
                self.worker_id,
                spec.pop("total_updates"),
                spec.pop("batch_size"),
                **spec,
            )
            self.done += done
            self.elapsed += elapsed
            return self.report()
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
            self.slabs_in = 0
            self.slabs_out = 0
            return True
        if cmd == "extract_slab":
            return self._extract_slab(payload)
        if cmd == "install_slab":
            return self._install_slab(payload)
        if cmd == "discard_slab":
            return self._discard_slab(payload)
        if cmd == "checkpoint":
            # Replica resync source: the primary's full logical content as
            # in-memory .npz bytes (reply-bearing, so it is a barrier — the
            # snapshot reflects every batch mirrored before it).
            return checkpoint_bytes(self.matrix)
        if cmd == "restore":
            # Replica resync sink: replace this worker's content with the
            # primary's checkpoint.  reset_from_triples keeps the worker's
            # own hierarchy configuration (cuts, accum, tracker) — only the
            # logical triples are adopted.
            restored = load_checkpoint_bytes(payload)
            rows, cols, vals = restored.materialize().extract_tuples()
            self.matrix.reset_from_triples(rows, cols, vals)
            return int(rows.size)
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

    def _slab_triples(self, partition: str, lo: int, hi: int):
        """Materialised shard triples split into (slab mask, rows, cols, vals)."""
        rows, cols, vals = self.matrix.to_coo()
        pkeys = partition_keys(rows, cols, partition, self.spec)
        return interval_mask(pkeys, int(lo), int(hi)), rows, cols, vals

    def _gather_slab(self, partition: str, lo: int, hi: int):
        """Combined ``[lo, hi)`` slab triples without materialising the shard.

        Each sorted layer is cut independently (``extract_tuples`` merges only
        that layer's own pending buffer) and only the *slab-sized* gathered
        pieces are combined across layers, so copying a small slab out of a
        large shard costs O(shard keys scanned + slab entries combined)
        instead of a full multi-layer merge.  The combine uses the hierarchy's
        own accumulator, so values are bit-identical to cutting the
        materialised sum.
        """
        lo, hi = int(lo), int(hi)
        parts = []
        for layer in self.matrix.layers:
            rows, cols, vals = layer.extract_tuples()
            if rows.size == 0:
                continue
            mask = interval_mask(partition_keys(rows, cols, partition, self.spec), lo, hi)
            if mask.any():
                parts.append((rows[mask], cols[mask], vals[mask]))
        if not parts:
            vt = self.matrix.dtype.np_type
            return np.empty(0, np.uint64), np.empty(0, np.uint64), np.empty(0, vt)
        if len(parts) == 1:
            return parts[0]
        combined = Matrix(self.matrix.dtype, self.matrix.nrows, self.matrix.ncols)
        combined.build(
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
            dup_op=self.matrix.accum,
        )
        return combined.extract_tuples()

    def _encode_slab(self, rows, cols, vals):
        """Slab wire form: packed uint64 keys + raw value bits when possible.

        Reuses the ingest frames' pieces (the PR-1 coordinate codec and
        the :class:`~repro.distributed.node.ValueCodec` bit codec), so a
        migrating slab crosses the reply channel as two flat uint64 arrays
        instead of three pickled object arrays; unpackable (IPv6) shapes
        fall back to plain COO triples.
        """
        if self.spec is not None and vals.dtype.itemsize <= 8:
            codec = ValueCodec(vals.dtype)
            return (
                "packed",
                coords.pack(rows, cols, self.spec),
                codec.encode(vals, rows.size),
            )
        return ("coo", rows, cols, vals)

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
        keys only, so a hot coordinate is never split across shards.
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
            for layer in self.matrix.layers:
                lr, lc, lv = layer.extract_tuples()
                if lr.size == 0:
                    continue
                key_parts.append(partition_keys(lr, lc, partition, self.spec))
                if weight == "value":
                    w_parts.append(np.abs(lv.astype(np.float64, copy=False)))
                else:
                    w_parts.append(np.ones(lr.size, dtype=np.float64))
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
            "slab": self._encode_slab(rows, cols, vals),
        }

    def _install_slab(self, slab) -> int:
        """Apply a migrated slab to this shard's matrix and tracker.

        The slab's coordinates were owned by the source, so under the
        disjoint-ownership invariant none of them are stored here: the
        update is a pure insert, and the incremental tracker observing it
        is exactly the tracker state the slab carried on the source (for the
        ``plus`` accumulator — the only one the tracker supports — a
        coordinate's tracked contribution *is* its combined value).
        Deliberately not counted into the ingest measurement counters.
        """
        if slab[0] == "packed":  # keys + raw value bits: no unpack, no re-pack
            _, keys, bits = slab
            batch = (keys, ValueCodec(self.matrix.dtype.np_type).decode(bits))
        else:
            batch = slab[1:]
        self.slabs_in += 1
        return self._apply(batch) if batch[0].size else 0

    def _discard_slab(self, payload) -> int:
        """Drop the slab ``[lo, hi)`` and rebuild this shard without it.

        Runs only after the coordinator confirmed the destination installed
        its copy.  Deterministic: membership is recomputed with the same
        shared :func:`partition_keys`, and no batch can have landed since
        the extract (the single routing thread publishes no new batches
        mid-migration), so exactly the extracted entries are removed.
        """
        move, rows, cols, vals = self._slab_triples(
            payload["partition"], payload["lo"], payload["hi"]
        )
        count = int(move.sum())
        if count:
            keep = ~move
            self.matrix.reset_from_triples(rows[keep], cols[keep], vals[keep])
        self.slabs_out += 1
        return count

    def report(self) -> WorkerReport:
        stats = self.matrix.stats
        rate = self.done / self.elapsed if self.elapsed > 0 else 0.0
        return WorkerReport(
            worker_id=self.worker_id,
            total_updates=self.done,
            elapsed_seconds=self.elapsed,
            updates_per_second=rate,
            final_nvals=self.matrix.materialize().nvals,
            cascades=list(stats.cascades) if stats is not None else [],
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

    def ingest(self, decode_payload: Callable[[], tuple]) -> None:
        """Apply one fire-and-forget batch; ``decode_payload`` materialises
        the ``(rows, cols, values)`` or ``(keys, values)`` tuple and may
        itself raise (wire decode errors are latched exactly like command
        errors)."""
        if self.pending_error is not None:
            return
        try:
            self.state.handle("ingest", decode_payload())
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
