"""Pluggable worker transports for the shard pool.

:class:`~repro.distributed.pool.ShardWorkerPool` speaks one command protocol
(:mod:`repro.distributed.worker`) over an exchangeable wire.  A transport owns
the worker processes and moves three kinds of traffic:

* **ingest batches** — fire-and-forget, the streaming hot path;
* **control commands** — ``finalize`` / ``stats`` / ``materialize`` / ``get``
  / ``reduce`` / ``reduce_incremental`` / ``selfgen`` / ``report`` /
  ``clear`` / ``stop``;
* **replies** — one per reply-bearing control command, FIFO per worker.

Three implementations:

``queue`` (:class:`QueueTransport`, the default)
    The PR-2 wire: everything crosses on per-worker ``multiprocessing``
    FIFO queues, so each ingest batch pays one pickle and one unpickle.
    Works for every shape and dtype.

``shm`` (:class:`ShmRingTransport`)
    One :class:`~repro.distributed.ringbuf.ShmRing` per worker carries
    ingest batches as packed ``uint64`` coordinate keys (the PR-1 codec —
    exactly the routing keys, which the router hands over pre-packed so the
    hot path never packs twice) plus raw 64-bit value patterns: zero
    pickling on the hot path.  All-ones batches (``values=1``, the traffic
    workload) ship as *key-only* frames with no value payload at all; the
    worker broadcasts scalar 1 back, bit-identical by construction.  Control commands travel on a small queue
    side-channel, and FIFO ordering against in-flight batches comes from the
    ring itself: every control first publishes an empty *barrier frame*
    in-band, and the worker executes the command only when it consumes that
    frame — so a reply-bearing command is a barrier for every batch
    submitted before it and *only* those, exactly like the queue transport.
    Requires a 64-bit-packable shape, a <= 8-byte value type, and a
    total-store-order host ISA (x86-64 — the ring's lock-free handoff is
    not fenced for weakly-ordered CPUs; set ``REPRO_SHM_TRANSPORT=force``
    to override on hardware you have validated); :func:`make_transport`
    falls back to ``queue`` otherwise (e.g. the IPv6 case).

``socket`` (:class:`SocketTransport`)
    The multi-node wire (PR 7): workers are not forked by the transport at
    all — they live behind :class:`~repro.distributed.node.NodeAgent`
    endpoints, and the transport *connects* one TCP stream per worker slot.
    Ingest crosses as length-prefixed frames of the same packed ``uint64``
    keys + :class:`~repro.distributed.ringbuf.ValueCodec` value bits the shm
    ring uses (key-only for all-ones batches, pickled-COO fallback for
    unpackable IPv6 shapes and wide dtypes — so unlike ``shm`` the socket
    wire serves every configuration itself).  Control commands and replies
    travel in-band on the same stream, so FIFO barrier ordering against
    in-flight batches holds by construction — no separate barrier frames
    needed.

All transports surface worker failures the same way: a worker-side exception
is delivered as an ``("error", traceback)`` reply, and a worker that *dies*
(killed, OOM, segfault) is detected by liveness polling or stream EOF and
delivered as a ``("died", ...)`` reply — the parent gets
:class:`~repro.distributed.worker.WorkerCrash` (respectively its
:class:`~repro.distributed.worker.WorkerDied` subclass) at the next reply, or
:class:`WorkerDied` at the next push into a dead worker's ring or socket,
instead of hanging.  The error/died distinction comes from the transport's
own detection path, never from an after-the-fact pid poll — a dying worker
closes its wire before its pid disappears, so polling races.  Fault
injection tests in ``tests/distributed/test_faults.py`` pin this down for
every transport.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import platform
import queue as queue_mod
import socket as socket_mod
import struct
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..graphblas import coords
from ..graphblas import _kernels as K
from ..graphblas.types import lookup_dtype
from . import node as node_mod
from .node import RemoteWorkerHandle, parse_address
from .ringbuf import DEFAULT_RING_SLOTS, RingClosed, ShmRing, ValueCodec
from .worker import CommandExecutor, WorkerCrash, WorkerDied

__all__ = [
    "ShardTransport",
    "ProcessTransport",
    "QueueTransport",
    "ShmRingTransport",
    "SocketTransport",
    "ValueCodec",
    "make_transport",
    "shm_supported",
    "TRANSPORT_NAMES",
]

#: Transport names accepted by :func:`make_transport` and the CLI.
TRANSPORT_NAMES = ("queue", "shm", "socket")

#: How often a blocked reply wait re-checks that the worker is still alive.
_REPLY_POLL_SECONDS = 0.05

#: Idle poll interval of the shm worker loop (ring empty, control queue empty).
_WORKER_POLL_SECONDS = 0.001

#: Ring frame flags: a data frame of (key, value-bits) pairs, or an empty
#: control barrier marking where a queued command sits in the ingest order.
_DATA_FRAME = 0
_BARRIER_FRAME = 1

#: Payload of a barrier frame.
_NO_KEYS = np.empty(0, dtype=np.uint64)

#: ISAs whose total-store-order semantics make the ring's unfenced
#: publish/consume handoff sound.  Weakly-ordered hosts (AArch64 ...) fall
#: back to the queue wire unless REPRO_SHM_TRANSPORT=force.
_TSO_MACHINES = frozenset({"x86_64", "amd64", "i686", "i386"})


def _ring_memory_model_ok() -> bool:
    if os.environ.get("REPRO_SHM_TRANSPORT", "").lower() in {"force", "1"}:
        return True
    return platform.machine().lower() in _TSO_MACHINES


def shm_supported(matrix_kwargs: Optional[Dict[str, Any]]) -> bool:
    """Whether the shm wire can carry this shard configuration bit-exactly.

    Needs the logical shape to pack into one 64-bit key
    (:func:`repro.graphblas.coords.shape_split`, shared with the shard
    router), a value type of at most 8 bytes, and a total-store-order host
    ISA (see the module docstring; ``REPRO_SHM_TRANSPORT=force`` overrides).
    """
    if not _ring_memory_model_ok():
        return False
    kwargs = dict(matrix_kwargs or {})
    nrows = int(kwargs.get("nrows", 2 ** 32))
    ncols = int(kwargs.get("ncols", 2 ** 32))
    if coords.shape_split(nrows, ncols) is None:
        return False
    return lookup_dtype(kwargs.get("dtype", "fp64")).np_type.itemsize <= 8


def make_transport(
    name: str,
    nworkers: int,
    matrix_kwargs: Optional[Dict[str, Any]] = None,
    *,
    ring_slots: Optional[int] = None,
    nodes: Optional[List] = None,
    placement: Optional[List[int]] = None,
) -> "ShardTransport":
    """Build the requested transport, falling back to ``queue`` when needed.

    ``shm`` silently degrades to ``queue`` for configurations the ring cannot
    carry bit-exactly (full 64-bit IPv6 shapes, > 8-byte value types) — the
    documented fallback, mirroring how the packed kernels fall back to
    lexsort.  Check the returned transport's ``.name`` to see what is in
    force.  ``socket`` requires ``nodes`` (agent endpoints to connect to) and
    optionally ``placement`` (worker slot -> node index); it needs no
    fallback — unpackable configurations use pickled ingest frames on the
    same wire.
    """
    if name not in TRANSPORT_NAMES:
        raise ValueError(
            f"unknown transport {name!r}; expected one of {TRANSPORT_NAMES}"
        )
    if name == "socket":
        if not nodes:
            raise ValueError("the socket transport requires node addresses")
        return SocketTransport(
            nworkers, matrix_kwargs, nodes=nodes, placement=placement
        )
    if name == "shm" and shm_supported(matrix_kwargs):
        return ShmRingTransport(nworkers, matrix_kwargs, ring_slots=ring_slots)
    return QueueTransport(nworkers, matrix_kwargs)


def _mp_context():
    return mp.get_context("fork") if hasattr(os, "fork") else mp.get_context("spawn")


class ShardTransport:
    """The wire interface the pool speaks; implementations own the endpoint.

    A transport moves the three traffic kinds of the module docstring for
    ``nworkers`` worker slots.  :class:`ProcessTransport` implementations
    additionally *own* their worker processes (fork on construction);
    :class:`SocketTransport` connects to workers something else hosts.
    """

    #: Wire name ("queue", "shm", or "socket"); set by subclasses.
    name: str = ""

    nworkers: int = 0

    def send_ingest(self, worker: int, rows, cols, values, keys=None) -> None:
        """Dispatch one ``(rows, cols, values)`` batch; fire-and-forget.

        ``keys`` optionally carries the router's already-packed ``uint64``
        coordinate keys for these rows/cols (always
        ``coords.pack(rows, cols, shape_split(nrows, ncols))``); the shm and
        socket wires send them as-is instead of packing a second time.
        """
        raise NotImplementedError

    def send_control(self, worker: int, cmd: str, payload=None) -> None:
        """Dispatch one non-ingest command; replies come via :meth:`recv_reply`."""
        raise NotImplementedError

    def recv_reply(self, worker: int) -> Tuple[str, Any]:
        """Block for the next ``(status, value)`` reply from ``worker``.

        A dead worker produces a ``("died", ...)`` reply instead of a hang
        (liveness polling or stream EOF, per wire); a worker that merely
        raised replies ``("error", traceback)`` and keeps serving.
        """
        raise NotImplementedError

    def worker_alive(self, worker: int) -> bool:
        """Whether the worker behind ``worker`` slot is still running."""
        raise NotImplementedError

    def respawn(self, worker: int) -> None:
        """Replace a dead worker slot with a fresh, empty worker.

        Used by replica resynchronisation: the new worker starts from an
        empty matrix and is caught up via ``checkpoint``/``restore``.
        """
        raise NotImplementedError

    def ingest_watermark(self, worker: int) -> Optional[float]:
        """Best-effort fill fraction (0..1) of this slot's ingest wire.

        Service-layer admission control (the gateway) pauses client reads
        while the worst slot sits above its high watermark, so a slow shard
        backpressures producers instead of growing an unbounded buffer.
        ``None`` means this wire cannot measure its queue depth; callers
        treat that as "no signal", not as zero pressure.
        """
        return None

    @property
    def processes(self) -> List:
        """Process(-like) handles per slot (fault-injection tests kill these)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every worker / release the wire; idempotent."""
        raise NotImplementedError

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


class ProcessTransport(ShardTransport):
    """Common machinery of the forking wires: worker processes, reply queues.

    Subclasses provide the worker main loop (:meth:`_spawn_args`) and the
    ingest wire (:meth:`send_ingest`); control commands and replies share the
    queue implementation here, and liveness is ``Process.is_alive`` polling.
    """

    def __init__(self, nworkers: int, matrix_kwargs: Optional[Dict[str, Any]]):
        self.nworkers = int(nworkers)
        self._matrix_kwargs = dict(matrix_kwargs or {})
        self._ctx = _mp_context()
        self._tasks = [self._ctx.Queue() for _ in range(self.nworkers)]
        self._replies = [self._ctx.Queue() for _ in range(self.nworkers)]
        self._procs: List[mp.Process] = []
        self._closed = False

    def _start(self) -> None:
        self._procs = [
            self._ctx.Process(target=self._worker_main, args=self._spawn_args(w), daemon=True)
            for w in range(self.nworkers)
        ]
        for p in self._procs:
            p.start()

    # Subclass hooks ----------------------------------------------------- #

    _worker_main = None  # staticmethod set by subclasses

    def _spawn_args(self, worker: int) -> tuple:
        raise NotImplementedError

    # Shared control/reply path ------------------------------------------ #

    def send_control(self, worker: int, cmd: str, payload=None) -> None:
        self._tasks[worker].put((cmd, payload))

    def recv_reply(self, worker: int) -> Tuple[str, Any]:
        q = self._replies[worker]
        proc = self._procs[worker]
        while True:
            try:
                return q.get(timeout=_REPLY_POLL_SECONDS)
            except queue_mod.Empty:
                if not proc.is_alive():
                    # Drain once more: the worker may have replied and died.
                    try:
                        return q.get(timeout=_REPLY_POLL_SECONDS)
                    except queue_mod.Empty:
                        return (
                            "died",
                            f"worker process died (exit code {proc.exitcode}) "
                            "without replying",
                        )

    def worker_alive(self, worker: int) -> bool:
        return self._procs[worker].is_alive()

    def respawn(self, worker: int) -> None:
        """Fork a fresh worker for this slot (its state starts empty).

        The slot's queues are *replaced*, not reused: a worker killed
        mid-read can leave a partial message in the old pipe (hanging any
        future reader), and commands the dead worker never consumed were
        already surfaced to the caller as errors — replaying them to the
        replacement would produce replies nobody is waiting for and
        desynchronise the reply stream.
        """
        old = self._procs[worker]
        if old.is_alive():  # pragma: no cover - defensive
            old.terminate()
        old.join(timeout=5)
        for q in (self._tasks[worker], self._replies[worker]):
            q.cancel_join_thread()
            q.close()
        self._tasks[worker] = self._ctx.Queue()
        self._replies[worker] = self._ctx.Queue()
        self._reset_slot_channels(worker)
        proc = self._ctx.Process(
            target=self._worker_main, args=self._spawn_args(worker), daemon=True
        )
        proc.start()
        self._procs[worker] = proc

    def _reset_slot_channels(self, worker: int) -> None:
        """Subclass hook: rebuild any extra per-slot wire state (rings)."""

    @property
    def processes(self) -> List[mp.Process]:
        """The worker processes (fault-injection tests kill these)."""
        return list(self._procs)

    # Lifecycle ---------------------------------------------------------- #

    def close(self) -> None:
        """Stop every worker and release the wire; idempotent."""
        if self._closed:
            return
        self._closed = True
        for w in range(self.nworkers):
            try:
                self.send_control(w, "stop")
            except Exception:  # pragma: no cover - queue already torn down
                pass
        for p in self._procs:
            p.join(timeout=5)
            if p.is_alive():  # pragma: no cover - defensive
                p.terminate()
        for q in (*self._tasks, *self._replies):
            q.close()


# --------------------------------------------------------------------------- #
# queue transport (the PR-2 wire)
# --------------------------------------------------------------------------- #


def _queue_worker_main(worker_id, matrix_kwargs, task_queue, reply_queue) -> None:
    """Child-process loop: pop commands, run them, push replies, never crash.

    Errors are latched by the :class:`~repro.distributed.worker.CommandExecutor`
    and delivered at the next reply-bearing command so the parent raises
    :class:`WorkerCrash` instead of hanging on an empty queue.
    """
    executor = CommandExecutor(worker_id, matrix_kwargs, reply_queue)
    while True:
        cmd, payload = task_queue.get()
        if cmd == "stop":
            break
        executor.execute(cmd, payload)


class QueueTransport(ProcessTransport):
    """Everything — batches included — over pickled per-worker FIFO queues."""

    name = "queue"
    _worker_main = staticmethod(_queue_worker_main)

    def __init__(self, nworkers: int, matrix_kwargs: Optional[Dict[str, Any]] = None):
        super().__init__(nworkers, matrix_kwargs)
        self._start()

    def _spawn_args(self, worker: int) -> tuple:
        return (worker, self._matrix_kwargs, self._tasks[worker], self._replies[worker])

    def send_ingest(self, worker: int, rows, cols, values, keys=None) -> None:
        batch = (rows, cols, values) if keys is None else (keys, values)
        self._tasks[worker].put(("ingest", batch))

    #: Undrained batches at which the task queue counts as "full" — queues
    #: are unbounded, so the watermark is nominal rather than a capacity.
    WATERMARK_DEPTH = 64

    def ingest_watermark(self, worker: int) -> Optional[float]:
        try:
            depth = self._tasks[worker].qsize()
        except (NotImplementedError, OSError):
            # qsize is unimplemented on some platforms (macOS sem_getvalue).
            return None
        return min(1.0, depth / float(self.WATERMARK_DEPTH))


# --------------------------------------------------------------------------- #
# shared-memory ring transport
# --------------------------------------------------------------------------- #


def _shm_worker_main(
    worker_id, matrix_kwargs, ring_name, task_queue, reply_queue
) -> None:
    """Shm worker loop: the ring totally orders ingest against control.

    Ingest arrives exclusively on the ring as data frames.  Every control
    command is preceded, in-band, by an empty barrier frame the parent pushed
    *before* enqueuing the command, so executing commands exactly when their
    barrier frame is consumed reproduces the queue transport's strict
    per-worker FIFO — batches submitted before a command are applied before
    it, batches submitted after it are not.  (The control queue alone could
    not provide this: its feeder thread delivers asynchronously, so a command
    could overtake or trail in-flight ring frames.)
    """
    executor = CommandExecutor(worker_id, matrix_kwargs, reply_queue)
    codec = ValueCodec(lookup_dtype(dict(matrix_kwargs or {}).get("dtype", "fp64")).np_type)
    ring = ShmRing.attach(ring_name)

    def apply_data(frame) -> None:
        keys, bits, _ = frame
        if bits is None:
            # Key-only frame: the producer proved every value's bit pattern
            # equals scalar 1 in the shard dtype, so the scalar fill in
            # HierarchicalMatrix.update_packed stores the identical bits.
            executor.ingest(lambda: (keys, 1))
        else:
            executor.ingest(lambda: (keys, codec.decode(bits)))

    try:
        while True:
            frame = ring.pop()
            if frame is not None:
                if frame[2] == _BARRIER_FRAME:
                    # The matching command was enqueued right after this
                    # barrier was pushed; block until the feeder delivers it.
                    cmd, payload = task_queue.get()
                    if cmd == "stop":
                        break
                    executor.execute(cmd, payload)
                else:
                    apply_data(frame)
                continue
            try:
                cmd, payload = task_queue.get(timeout=_WORKER_POLL_SECONDS)
            except queue_mod.Empty:
                continue
            if cmd == "stop":
                break
            # The command overtook its barrier (we idled between the barrier
            # being pushed and the queue delivering): apply every data frame
            # up to that barrier first, preserving submission order.
            while True:
                frame = ring.pop()
                if frame is None:
                    time.sleep(_WORKER_POLL_SECONDS)
                    continue
                if frame[2] == _BARRIER_FRAME:
                    break
                apply_data(frame)
            executor.execute(cmd, payload)
    finally:
        ring.close()


class ShmRingTransport(ProcessTransport):
    """Ingest over per-worker shared-memory rings; control over a side queue.

    The parent sends each routed batch as ``uint64`` coordinate keys under
    the shape's :func:`~repro.graphblas.coords.shape_split` (toggle
    independent — exactly the router's keys, which
    :meth:`ShardedHierarchicalMatrix.update` hands over pre-packed) and raw
    value bits, copied into the worker's ring: the batch crosses the process
    boundary without touching pickle.  Backpressure is the ring's
    sequence-number handshake: a full ring blocks the producer until the
    worker catches up, and a dead worker raises :class:`WorkerCrash` out of
    the blocked push.  Control commands publish an in-band barrier frame
    before enqueuing, which is what serialises them against in-flight
    batches (see :func:`_shm_worker_main`).
    """

    name = "shm"
    _worker_main = staticmethod(_shm_worker_main)

    def __init__(
        self,
        nworkers: int,
        matrix_kwargs: Optional[Dict[str, Any]] = None,
        *,
        ring_slots: Optional[int] = None,
    ):
        super().__init__(nworkers, matrix_kwargs)
        nrows = int(self._matrix_kwargs.get("nrows", 2 ** 32))
        ncols = int(self._matrix_kwargs.get("ncols", 2 ** 32))
        self._spec = coords.shape_split(nrows, ncols)
        if self._spec is None:
            raise ValueError(
                f"shape {nrows}x{ncols} does not pack into a 64-bit key; "
                "use the queue transport"
            )
        self._nrows = nrows
        self._ncols = ncols
        self._codec = ValueCodec(
            lookup_dtype(self._matrix_kwargs.get("dtype", "fp64")).np_type
        )
        # Bit pattern of scalar 1 in the shard dtype: batches whose every
        # value matches it ship as key-only frames (no value payload at all
        # — the all-ones traffic workload currently dominates the wire).
        self._one_bits = np.uint64(self._codec.one_bits)
        #: Key-only ingest frames published so far (observability + tests).
        self.key_only_batches = 0
        slots = int(ring_slots) if ring_slots is not None else DEFAULT_RING_SLOTS
        self._rings = [ShmRing(slots) for _ in range(self.nworkers)]
        self._start()

    def _spawn_args(self, worker: int) -> tuple:
        return (
            worker,
            self._matrix_kwargs,
            self._rings[worker].name,
            self._tasks[worker],
            self._replies[worker],
        )

    @property
    def rings(self) -> List[ShmRing]:
        """Per-worker rings (parent-side handles; exposed for tests)."""
        return list(self._rings)

    def ingest_watermark(self, worker: int) -> Optional[float]:
        ring = self._rings[worker]
        try:
            if ring.closed:
                return None
            return min(1.0, ring.used / float(ring.capacity))
        except (OSError, ValueError):  # pragma: no cover - torn-down shm
            return None

    def _reset_slot_channels(self, worker: int) -> None:
        # A worker killed mid-pop can leave the ring's read watermark stale;
        # the replacement gets a fresh ring (same capacity) instead.
        slots = self._rings[worker].capacity
        try:
            self._rings[worker].destroy()
        except Exception:  # pragma: no cover - already torn down
            pass
        self._rings[worker] = ShmRing(slots)

    def send_ingest(self, worker: int, rows, cols, values, keys=None) -> None:
        if keys is None:
            r = K.as_index_array(rows, "rows")
            c = K.as_index_array(cols, "cols")
            if r.size == 0:
                return
            # Refuse coordinates packing would silently alias onto a wrong
            # (row, col); routed batches were already validated upstream.
            if int(r.max()) >= self._nrows or int(c.max()) >= self._ncols:
                from ..graphblas.errors import InvalidIndex

                raise InvalidIndex(
                    f"coordinate batch exceeds the {self._nrows}x{self._ncols} shape"
                )
            keys = coords.pack(r, c, self._spec)
        else:
            keys = np.ascontiguousarray(keys, dtype=np.uint64)
            if keys.size == 0:
                return
        # All-ones batches (the traffic workload's `values=1`) cross as
        # key-only frames: every value's bit pattern in the shard dtype is
        # compared against scalar 1's — an exact, dtype-aware test — and a
        # match drops the 8 value bytes per update from the wire copy.  The
        # worker broadcasts scalar 1 back, which is bit-identical by
        # construction.
        scalar = np.isscalar(values) or (
            isinstance(values, np.ndarray) and values.ndim == 0
        )
        bits = self._codec.encode(values, 1 if scalar else keys.size)
        if self._codec.encodes_to_ones(values, bits):
            self.key_only_batches += 1
            self._push(worker, keys, None, _DATA_FRAME)
            return
        if scalar:
            bits = self._codec.encode(values, keys.size)
        self._push(worker, keys, bits, _DATA_FRAME)

    def send_control(self, worker: int, cmd: str, payload=None) -> None:
        if cmd != "stop":
            # In-band ordering: the barrier frame lands in the ring before
            # the command enters the (asynchronously delivered) queue.
            self._push(worker, _NO_KEYS, _NO_KEYS, _BARRIER_FRAME)
        self._tasks[worker].put((cmd, payload))

    def _push(self, worker: int, keys, bits, flags: int) -> None:
        proc = self._procs[worker]
        try:
            self._rings[worker].push(keys, bits, flags=flags, still_alive=proc.is_alive)
        except RingClosed as exc:
            raise WorkerDied(
                f"shard worker {worker} is gone (exit code {proc.exitcode}); "
                f"ring push failed: {exc}"
            ) from exc

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        for ring in self._rings:
            ring.destroy()


# --------------------------------------------------------------------------- #
# socket transport (the PR-7 multi-node wire)
# --------------------------------------------------------------------------- #


class SocketTransport(ShardTransport):
    """One TCP stream per worker slot, connected to NodeAgent endpoints.

    The transport owns no processes: each slot is a connection to a
    :class:`~repro.distributed.node.NodeAgent` (local or remote), which forks
    the worker behind it.  Ingest crosses as packed-key + raw-value-bit
    frames (key-only for all-ones batches — the shm wire's framing over TCP);
    control commands and replies share the same stream, so per-worker FIFO
    ordering — and with it the barrier semantics of reply-bearing commands —
    holds because a byte stream cannot reorder.  Configurations the binary
    frames cannot carry (unpackable IPv6 shapes, > 8-byte value types) use
    pickled ingest frames on the same connection instead of a different
    transport.

    Parameters
    ----------
    nworkers:
        Worker slots to connect.
    matrix_kwargs:
        Shard matrix configuration, forwarded to each worker via HELLO.
    nodes:
        Agent endpoints — ``"host:port"`` strings or ``(host, port)`` pairs.
    placement:
        Node index per slot; defaults to ``slot % len(nodes)`` round-robin.
        The pool overrides this for replicated slot layouts so a shard's
        primary and replica never share a node.
    """

    name = "socket"

    def __init__(
        self,
        nworkers: int,
        matrix_kwargs: Optional[Dict[str, Any]] = None,
        *,
        nodes: List,
        placement: Optional[List[int]] = None,
    ):
        self.nworkers = int(nworkers)
        self._matrix_kwargs = dict(matrix_kwargs or {})
        self._nodes = [parse_address(a) for a in nodes]
        if placement is None:
            placement = [s % len(self._nodes) for s in range(self.nworkers)]
        if len(placement) != self.nworkers:
            raise ValueError(
                f"{len(placement)} placements do not cover {self.nworkers} slots"
            )
        self.placement = [int(p) for p in placement]
        nrows = int(self._matrix_kwargs.get("nrows", 2 ** 32))
        ncols = int(self._matrix_kwargs.get("ncols", 2 ** 32))
        self._nrows, self._ncols = nrows, ncols
        self._spec = coords.shape_split(nrows, ncols)
        np_type = lookup_dtype(self._matrix_kwargs.get("dtype", "fp64")).np_type
        self._codec = ValueCodec(np_type) if np_type.itemsize <= 8 else None
        #: Key-only ingest frames sent so far (observability + tests).
        self.key_only_batches = 0
        self._conns: List = []
        self._handles: List[RemoteWorkerHandle] = []
        self._closed = False
        try:
            for slot in range(self.nworkers):
                self._connect(slot)
        except Exception:
            self.close()
            raise

    def _connect(self, slot: int) -> None:
        conn = socket_mod.create_connection(self._nodes[self.placement[slot]], timeout=30)
        conn.setsockopt(socket_mod.IPPROTO_TCP, socket_mod.TCP_NODELAY, 1)
        node_mod.send_pickled(
            conn,
            node_mod.F_HELLO,
            {"slot": slot, "matrix_kwargs": self._matrix_kwargs},
        )
        # The 30s timeout stays armed through the HELLO exchange: a rejoin
        # re-dial can reach an endpoint that accepts but never serves (e.g.
        # an agent mid-restart), and an unbounded recv here would wedge the
        # supervisor instead of surfacing a retryable failure.
        try:
            frame = node_mod.recv_frame(conn)
        except socket_mod.timeout:
            frame = None
        if frame is None or frame[0] != node_mod.F_HELLO_ACK:
            conn.close()
            raise WorkerCrash(
                f"node agent at {self._nodes[self.placement[slot]]} did not "
                f"acknowledge worker slot {slot}"
            )
        conn.settimeout(None)
        ack = pickle.loads(bytes(frame[1]))
        handle = RemoteWorkerHandle(int(ack["pid"]))
        if slot < len(self._conns):
            self._conns[slot] = conn
            self._handles[slot] = handle
        else:
            self._conns.append(conn)
            self._handles.append(handle)

    # Wire implementation ------------------------------------------------- #

    def send_ingest(self, worker: int, rows, cols, values, keys=None) -> None:
        if self._spec is not None and self._codec is not None:
            if keys is None:
                r = K.as_index_array(rows, "rows")
                c = K.as_index_array(cols, "cols")
                if r.size == 0:
                    return
                if int(r.max()) >= self._nrows or int(c.max()) >= self._ncols:
                    from ..graphblas.errors import InvalidIndex

                    raise InvalidIndex(
                        f"coordinate batch exceeds the {self._nrows}x{self._ncols} shape"
                    )
                keys = coords.pack(r, c, self._spec)
            else:
                keys = np.ascontiguousarray(keys, dtype=np.uint64)
                if keys.size == 0:
                    return
            scalar = np.isscalar(values) or (
                isinstance(values, np.ndarray) and values.ndim == 0
            )
            bits = self._codec.encode(values, 1 if scalar else keys.size)
            if self._codec.encodes_to_ones(values, bits):
                self.key_only_batches += 1
                self._send(worker, node_mod.F_DATA_KEYONLY, keys.tobytes())
                return
            if scalar:
                bits = self._codec.encode(values, keys.size)
            self._send(worker, node_mod.F_DATA, keys.tobytes() + bits.tobytes())
            return
        # Unpackable shape / wide dtype: pickled COO on the same stream.
        self._send(
            worker,
            node_mod.F_DATA_PICKLED,
            pickle.dumps((rows, cols, values), protocol=pickle.HIGHEST_PROTOCOL),
        )

    def ingest_watermark(self, worker: int) -> Optional[float]:
        # Linux SIOCOUTQ (== TIOCOUTQ): bytes queued in the kernel send
        # buffer that the worker has not yet drained, normalised by the
        # socket's send-buffer size.  Not available on every platform, so
        # any failure degrades to "no signal".
        try:
            import fcntl
            import termios

            conn = self._conns[worker]
            raw = fcntl.ioctl(conn.fileno(), termios.TIOCOUTQ, b"\x00" * 4)
            unsent = struct.unpack("@i", raw)[0]
            sndbuf = conn.getsockopt(socket_mod.SOL_SOCKET, socket_mod.SO_SNDBUF)
            if sndbuf <= 0:
                return None
            return min(1.0, max(0, unsent) / float(sndbuf))
        except (ImportError, AttributeError, OSError, ValueError):
            return None

    def send_control(self, worker: int, cmd: str, payload=None) -> None:
        try:
            self._send(
                worker,
                node_mod.F_CONTROL,
                pickle.dumps((cmd, payload), protocol=pickle.HIGHEST_PROTOCOL),
            )
        except WorkerCrash:
            if cmd != "stop":
                # Match the queue wire: sending a control to a dead worker
                # succeeds quietly; the death surfaces at recv_reply.
                pass

    def _send(self, worker: int, ftype: int, payload: bytes) -> None:
        try:
            node_mod.send_frame(self._conns[worker], ftype, payload)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerDied(
                f"shard worker {worker} is gone; socket send failed: {exc}"
            ) from exc

    def recv_reply(self, worker: int) -> Tuple[str, Any]:
        frame = node_mod.recv_frame(self._conns[worker])
        if frame is None or frame[0] != node_mod.F_REPLY:
            # EOF delivers buffered replies first, so reaching this point
            # means the worker truly died before replying — the stream
            # analogue of the queue wire's liveness-poll timeout.
            return (
                "died",
                f"worker process died (connection to pid "
                f"{self._handles[worker].pid} lost) without replying",
            )
        return pickle.loads(bytes(frame[1]))

    def worker_alive(self, worker: int) -> bool:
        return self._handles[worker].is_alive()

    def respawn(self, worker: int) -> None:
        """Reconnect the slot: the agent forks a fresh (empty) worker."""
        try:
            self._conns[worker].close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._connect(worker)

    @property
    def processes(self) -> List[RemoteWorkerHandle]:
        """Process-like pid handles (valid for agents on this machine)."""
        return list(self._handles)

    # Lifecycle ----------------------------------------------------------- #

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in range(len(self._conns)):
            try:
                self.send_control(worker, "stop")
            except Exception:  # pragma: no cover - peer already gone
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
