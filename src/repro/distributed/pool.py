"""Persistent shard-worker pool: long-lived workers behind one slot interface.

PR 1's parallel engine could only run *one-shot* workers (``pool.map`` over a
function that generated its own workload), which rules out the serving shapes
the ROADMAP asks for: sharding one externally supplied stream across workers,
querying the shards afterwards, and keeping workers alive between batches.
This module provides that substrate.  Each worker — a separate process, or an
in-process slot when ``use_processes=False`` — owns a private
:class:`~repro.core.HierarchicalMatrix` and executes a small command protocol:

``ingest``
    Stream one ``(rows, cols, values)`` batch — or ``(keys, values)`` when
    the sender already holds the batch packed under the shape's 64-bit
    split — into the worker's matrix.  Fire and forget: no reply, so the
    parent can pipeline batches to all shards without per-batch round trips.
    Update time is accumulated worker-side.
``finalize``
    Force the deferred layer-1 flush *inside* the timed section and reply
    with the worker's measured ``(updates, seconds)`` so reported rates
    include the pending-tuple sort/merge the stream deferred.
``materialize`` / ``get`` / ``reduce``
    Read the shard: full COO triples, one element, or a row/column reduction
    (the ``reduce`` command materialises the shard first).
``stats`` / ``reduce_incremental``
    Read the shard's *incrementally maintained* reductions (see
    :mod:`repro.core.reductions`): a scalar snapshot (support flags, total
    traffic, exact nnz), or one reduction vector as ``(indices, values)``
    COO pairs — served from the running tracker, so neither command forces
    the shard's deferred layer-1 flush or a materialize.
``extract_slab`` / ``install_slab`` / ``discard_slab``
    The worker half of live slab migration (PR 5, driven by
    :meth:`ShardedHierarchicalMatrix.rebalance
    <repro.distributed.sharded.ShardedHierarchicalMatrix.rebalance>`):
    copy a partition-key slab out of a shard (packed keys + raw value
    bits), apply a migrated slab, and drop a slab after its new owner
    confirmed.  All reply-bearing, so they are barriers against in-flight
    ingest.  A replica resync (:meth:`ShardWorkerPool.resync_replica`)
    copies a primary with the first two, over the whole key space.
``report`` / ``clear`` / ``stop``
    Measurement snapshot, state reset, and shutdown.

How commands travel is the business of the pool's one
:class:`~repro.distributed.transport.ShardTransport`: an
:class:`~repro.distributed.transport.InprocTransport` of in-process slots, or
a :class:`~repro.distributed.transport.SocketTransport` with one stream
socket per slot, to a child the pool forks over a ``socketpair`` or, with
``nodes``, to a worker hosted by a :class:`~repro.distributed.node.NodeAgent`
endpoint.  Every slot runs the same
:class:`~repro.distributed.worker.CommandExecutor`, so the ordering contract
is identical — a reply-bearing command acts as a barrier for every
``ingest`` submitted before it — and so is the error protocol: a worker-side
exception is latched and re-raised in the parent as :class:`WorkerCrash` at
the next reply, and the worker keeps serving; a worker that *dies* is
detected by stream EOF and raised as :class:`WorkerDied`.  The conformance
suite (``tests/distributed/test_transport.py``) asserts the three modes
yield bit-identical results.

Replication (PR 7): with ``replicas=r`` the pool provisions ``(1 + r)``
worker slots per shard.  Every ingest batch is *mirrored* to the shard's
replica slots unconditionally — before any primary failure is even
detectable — which is the whole zero-lost-updates argument: when a primary
dies, every batch it ever received (and any it may have missed while dying)
already sits in a replica, so :meth:`promote` simply redirects the shard to
that replica without replaying anything.  Control commands that *read* go to
the primary only; state-mutating commands — and the migration barrier
``extract_slab`` — go through :meth:`request_mirrored` so replica content
tracks the primary exactly through rebalances as well as ingest
(``install_slab`` / ``discard_slab`` / ``clear`` mutate; the mirrored
extract is a pure copy whose replica legs exist for the barrier and the
pre-mutation health check).  Replica slots never answer queries while a
primary is alive, so mirroring adds no read-path cost.  A replica that
fails any leg is retired — visible through :meth:`missing_replicas`, and
restored by :meth:`resync_replica` (hands-off via the service-layer
rejoin supervisor).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .transport import InprocTransport, SocketTransport
from .worker import KNOWN_COMMANDS, WorkerCrash, WorkerDied, WorkerReport

__all__ = [
    "WorkerReport",
    "WorkerCrash",
    "WorkerDied",
    "ShardWorkerPool",
]


class ShardWorkerPool:
    """K long-lived shard workers behind one :class:`ShardTransport
    <repro.distributed.transport.ShardTransport>`.

    Parameters
    ----------
    nworkers:
        Number of shard workers.
    matrix_kwargs:
        Constructor arguments for every worker's private
        :class:`~repro.core.HierarchicalMatrix` (``nrows``, ``ncols``,
        ``dtype``, ``cuts``, ``track_reductions`` ...).  ``accum`` may be
        given as an operator *name* so it crosses the process boundary.
    use_processes:
        When True each worker is a separate long-lived process on the
        other end of a :class:`~repro.distributed.transport.SocketTransport`
        stream (forked locally unless ``nodes`` is given, which needs
        ``os.fork``).  When False workers are the in-process slots of an
        :class:`~repro.distributed.transport.InprocTransport`, executing
        synchronously — identical semantics, no IPC, which is what unit
        tests and the bit-identity property suite use.
    replicas:
        Replica workers per shard (default 0).  Each shard gets ``1 +
        replicas`` worker slots; ingest is mirrored to every replica and a
        dead primary can be :meth:`promote`-d without data loss.
    nodes:
        :class:`~repro.distributed.node.NodeAgent` endpoints to host the
        process-backed workers (``"host:port"`` strings or ``(host, port)``
        pairs) instead of forking them locally.  Slots are placed so a
        shard's primary and its replicas always land on
        *different* nodes (when there are at least two), making node death
        survivable.

    Examples
    --------
    >>> import numpy as np
    >>> with ShardWorkerPool(2, matrix_kwargs={"cuts": [100, 1000]},
    ...                      use_processes=False) as pool:
    ...     pool.submit(0, "ingest", (np.array([1], dtype=np.uint64),
    ...                               np.array([2], dtype=np.uint64), 1.0))
    ...     pool.request(0, "get", (1, 2))
    1.0
    """

    def __init__(
        self,
        nworkers: int,
        *,
        matrix_kwargs: Optional[Dict[str, Any]] = None,
        use_processes: bool = True,
        replicas: int = 0,
        nodes: Optional[list] = None,
    ):
        self.nworkers = int(nworkers)
        if self.nworkers < 1:
            raise ValueError("nworkers must be >= 1")
        self.replicas = int(replicas)
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")
        self._matrix_kwargs = dict(matrix_kwargs or {})
        self.use_processes = bool(use_processes)
        self._closed = False
        # Slot layout: replica r of shard s is slot r*K + s (r = 0 is the
        # initial primary), so with replicas=0 slot indices equal shard
        # indices and nothing about the pre-replication surface changes.
        nslots = self.nworkers * (1 + self.replicas)
        self._primary = list(range(self.nworkers))
        self._replicas_of = {
            s: [r * self.nworkers + s for r in range(1, 1 + self.replicas)]
            for s in range(self.nworkers)
        }
        self._dead: set = set()
        if self.use_processes:
            placement = None
            if nodes:
                # Stagger replicas across nodes: slot r*K + s lands on node
                # (s + r) % N, so a shard's primary and replica share a node
                # only when there is a single node.  (Plain slot % N would
                # co-locate them whenever K % N == 0 — e.g. 2 shards on 2
                # nodes — defeating node-kill failover.)
                n = len(nodes)
                placement = [
                    (s + r) % n
                    for r in range(1 + self.replicas)
                    for s in range(self.nworkers)
                ]
            self._transport = SocketTransport(
                nslots, self._matrix_kwargs, nodes=nodes, placement=placement
            )
        else:
            self._transport = InprocTransport(nslots, self._matrix_kwargs)

    @property
    def transport_name(self) -> str:
        """Wire in force: ``"inproc"`` or ``"socket"``."""
        return self._transport.name

    @property
    def nslots(self) -> int:
        """Total worker slots (``nworkers * (1 + replicas)``)."""
        return self.nworkers * (1 + self.replicas)

    @property
    def processes(self) -> list:
        """Worker processes/handles per slot (empty in-process); fault tests
        kill these.  With ``replicas=0`` slot indices equal shard indices."""
        return self._transport.processes

    # -- replica topology ------------------------------------------------- #

    def primary_slot(self, shard: int) -> int:
        """The slot currently serving ``shard`` (changes on :meth:`promote`)."""
        return self._primary[shard]

    def replica_slots(self, shard: int) -> list:
        """Live replica slots currently mirroring ``shard``."""
        return list(self._replicas_of[shard])

    def _slot_alive(self, slot: int) -> bool:
        return slot not in self._dead and self._transport.worker_alive(slot)

    def shard_alive(self, shard: int) -> bool:
        """Whether the shard's *primary* worker is still running.

        The failover path uses this to distinguish a worker that raised (it
        survives and keeps serving — no failover) from one that died.
        """
        return self._slot_alive(self._primary[shard])

    def has_live_replica(self, shard: int) -> bool:
        """Whether at least one live replica could take over ``shard``."""
        return any(self._slot_alive(s) for s in self._replicas_of[shard])

    def missing_replicas(self, shard: int) -> int:
        """Replica slots of ``shard`` currently retired (0 = full budget).

        Counts every home slot that is neither the acting primary nor a
        registered live mirror — i.e. slots spent by failovers, failed
        mirror sends, or killed nodes, each awaiting
        :meth:`resync_replica`.  This is the cheap no-work check the rejoin
        supervisor polls; it never touches the wire.
        """
        return self.replicas - len(self._replicas_of[shard])

    def ingest_pressure(self) -> float:
        """Worst ingest-wire fill fraction across all live slots (0..1).

        Replica slots count too: mirrored submits block on the slowest
        mirror, so a congested replica backpressures ingest exactly like a
        congested primary.  Wires that cannot measure depth contribute no
        signal, so in-process pools report 0.0 (ingest is synchronous).
        """
        worst = 0.0
        for slot in range(self.nslots):
            if slot in self._dead:
                continue
            mark = self._transport.ingest_watermark(slot)
            if mark is not None and mark > worst:
                worst = float(mark)
        return worst

    def _mark_replica_dead(self, shard: int, slot: int) -> None:
        self._dead.add(slot)
        if slot in self._replicas_of[shard]:
            self._replicas_of[shard].remove(slot)

    def _slot_answers(self, slot: int) -> bool:
        """Round-trip a cheap reply-bearing command to ``slot``.

        A pid poll is not a liveness proof at failover time: when a whole
        node dies, its workers die *with* it a beat later, so a replica on
        the same dying node can still read alive while its wire is already
        gone.  Only a completed round-trip proves the slot can serve — and
        a replica whose latched error shows up here must not serve either.
        """
        try:
            self._submit_slot(slot, "stats")
            status, _ = self._transport.recv_reply(slot)
        except WorkerCrash:
            return False
        return status == "ok"

    def promote(self, shard: int) -> int:
        """Redirect ``shard`` to a live replica; returns the new primary slot.

        The dead primary is retired from the shard's slot set.  Each
        candidate replica is verified with a real round-trip (see
        :meth:`_slot_answers`) before it is promoted.  Raises
        :class:`WorkerCrash` when no live replica exists — the caller leaves
        the routing epoch untouched in that case.
        """
        old = self._primary[shard]
        self._dead.add(old)
        for slot in list(self._replicas_of[shard]):
            if self._slot_alive(slot) and self._slot_answers(slot):
                self._replicas_of[shard].remove(slot)
                self._primary[shard] = slot
                return slot
            self._mark_replica_dead(shard, slot)
        raise WorkerCrash(
            f"shard {shard} lost its primary (slot {old}) and has no live replica"
        )

    # -- dispatch -------------------------------------------------------- #

    def submit(self, worker: int, cmd: str, payload=None) -> None:
        """Dispatch one command without waiting; replies come via :meth:`collect`.

        Parameters
        ----------
        worker:
            0-based worker index.
        cmd:
            Command name (see the module docstring for the protocol).
        payload:
            Command argument, e.g. the ``(rows, cols, values)`` batch of an
            ``ingest`` or the ``(row, col)`` pair of a ``get``.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if cmd not in KNOWN_COMMANDS:
            # Fail fast in the parent: a fire-and-forget typo would otherwise
            # only surface at some later reply (or never).
            raise ValueError(f"unknown worker command {cmd!r}")
        if cmd == "ingest":
            rows, cols, values = payload
            self.submit_ingest(worker, rows, cols, values)
        else:
            self._submit_slot(self._primary[worker], cmd, payload)

    def _submit_slot(self, slot: int, cmd: str, payload=None) -> None:
        """Dispatch a control command to one concrete slot (replica-aware
        callers address replicas directly; :meth:`submit` maps shard ->
        primary)."""
        self._transport.send_control(slot, cmd, payload)

    def submit_ingest(self, worker: int, rows, cols, values, keys=None) -> None:
        """Fire-and-forget one ingest batch (the streaming hot path).

        ``keys`` optionally carries the coordinates already packed under the
        shape's 64-bit split (what :meth:`ShardRouter.route
        <repro.distributed.sharded.ShardRouter.route>` returns); the socket
        wire ships them as-is and an in-process slot hands them straight to
        :meth:`HierarchicalMatrix.update_packed
        <repro.core.HierarchicalMatrix.update_packed>`, so a routed batch is
        packed exactly once.

        With replicas the batch is *always* mirrored to every live replica
        slot — including when the primary send fails — so a later promotion
        never needs a resend: the primary's failure is re-raised only after
        the mirrors went out.  A replica whose send fails is retired
        silently (it can be resynchronised later), and one whose apply fails
        latches the error like any worker; neither fails the stream.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        primary_exc = None
        try:
            self._transport.send_ingest(
                self._primary[worker], rows, cols, values, keys=keys
            )
        except WorkerCrash as exc:
            primary_exc = exc
        for slot in list(self._replicas_of[worker]):
            try:
                self._transport.send_ingest(slot, rows, cols, values, keys=keys)
            except WorkerCrash:
                self._mark_replica_dead(worker, slot)
        if primary_exc is not None:
            raise primary_exc

    def collect(self, worker: int):
        """Block for the next reply from ``worker``'s primary (FIFO per slot).

        Raises :class:`WorkerCrash` when the worker's command failed or the
        worker process died; a worker that merely raised survives and keeps
        serving subsequent commands.
        """
        status, value = self._transport.recv_reply(self._primary[worker])
        if status == "died":
            raise WorkerDied(f"shard worker {worker} failed:\n{value}")
        if status == "error":
            raise WorkerCrash(f"shard worker {worker} failed:\n{value}")
        return value

    def request(self, worker: int, cmd: str, payload=None):
        """Submit one reply-bearing command to ``worker`` and wait for its result."""
        self.submit(worker, cmd, payload)
        return self.collect(worker)

    def request_mirrored(self, shard: int, cmd: str, payload=None):
        """A reply-bearing command applied to the primary and every live
        replica of ``shard``; returns the primary's result.

        Every migration step (``extract_slab`` / ``install_slab`` /
        ``discard_slab``) and ``clear`` go through here so replica content
        stays an exact mirror of the primary — the replies double as
        barriers that pin each mirror leg to the same stream position.  A
        replica that fails the command (raised or died) is retired — a
        replica whose state can no longer be trusted must never be promoted
        — while the primary's failure propagates as :class:`WorkerCrash`
        exactly like :meth:`request`.  Retirement is never silent to the
        caller that cares: it shows up in :meth:`missing_replicas`, and the
        migration path re-checks the budget after publishing its epoch.
        The primary is addressed through the public
        :meth:`submit`/:meth:`collect` path, preserving their semantics
        (and their fault-injection hooks).
        """
        replica_slots = list(self._replicas_of[shard])
        self.submit(shard, cmd, payload)
        for slot in replica_slots:
            self._submit_slot(slot, cmd, payload)
        try:
            return self.collect(shard)
        finally:
            # Replica replies are drained even when the primary failed:
            # leaving them queued would desynchronise every later reply.
            for slot in replica_slots:
                status, _ = self._transport.recv_reply(slot)
                if status != "ok":
                    self._mark_replica_dead(shard, slot)

    def resync_replica(self, shard: int) -> Optional[int]:
        """Respawn one retired slot of ``shard`` and catch it up; returns the
        slot re-registered as a replica (None when nothing needed resyncing).

        The replacement starts empty and installs the primary's whole shard
        as one slab: ``extract_slab`` over the entire key space (a pure,
        per-layer copy — nothing is materialised or compressed), then
        ``install_slab`` into the new slot (an empty slab installs nothing),
        and only then does the slot rejoin the mirror set.  Both commands
        are reply-bearing barriers, and the single routing thread publishes
        no batches mid-resync, so the replica holds exactly the primary's
        logical content and tracker state.  Like a migration destination,
        the replica's ``UpdateStats`` count the installed slab (one update
        call and its cascades); the primary's counters are not copied.
        """
        home = {
            r * self.nworkers + shard for r in range(1 + self.replicas)
        } - {self._primary[shard]} - set(self._replicas_of[shard])
        dead = sorted(home & self._dead)
        if not dead:
            return None
        slot = dead[0]
        self._transport.respawn(slot)
        # Both legs are addressed by slot: this copy is no migration step,
        # so it bypasses ``submit`` and anything hooked on migration
        # commands there.
        self._submit_slot(
            self._primary[shard],
            "extract_slab",
            {"partition": "range", "lo": 0, "hi": 2 ** 64},
        )
        whole = self.collect(shard)
        self._submit_slot(slot, "install_slab", whole["slab"])
        status, value = self._transport.recv_reply(slot)
        if status != "ok":
            raise WorkerCrash(f"replica resync for shard {shard} failed:\n{value}")
        # Retired until here: a failed leg above leaves the slot for the
        # next resync to pick again.
        self._dead.discard(slot)
        self._replicas_of[shard].append(slot)
        return slot

    # -- lifecycle ------------------------------------------------------- #

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._transport.close()

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
