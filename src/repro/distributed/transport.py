"""The process wire of the shard pool: length-prefixed frames over sockets.

:class:`~repro.distributed.pool.ShardWorkerPool` speaks one command protocol
(:mod:`repro.distributed.worker`) to process-backed workers over
:class:`SocketTransport`.  The wire moves three kinds of traffic:

* **ingest batches** — fire-and-forget, the streaming hot path;
* **control commands** — ``finalize`` / ``stats`` / ``materialize`` / ``get``
  / ``reduce`` / ``reduce_incremental`` / ``selfgen`` / ``report`` /
  ``clear`` / ``stop`` and the migration and resync commands;
* **replies** — one per reply-bearing control command, FIFO per worker.

Each worker slot is one stream socket carrying the frames of
:mod:`repro.distributed.node`, reached in one of two connection modes:

local (no ``nodes``)
    The transport forks the worker itself over a ``socketpair``; the child
    keeps only its own end and serves it with
    :func:`~repro.distributed.node._serve_connection`.
agent (``nodes`` given)
    The transport dials a :class:`~repro.distributed.node.NodeAgent`
    endpoint per slot; the agent forks the worker behind the connection.

Either way ingest crosses as packed ``uint64`` keys plus
:class:`~repro.distributed.node.ValueCodec` value bits (key-only for all-ones
batches, pickled for unpackable IPv6 shapes and wide dtypes), and control
commands and replies share the stream, so a reply-bearing command is a
barrier for every batch sent before it and *only* those: a byte stream
cannot reorder.

Worker failures surface one way: a worker-side exception is delivered as an
``("error", traceback)`` reply and the worker keeps serving; a worker that
*dies* (killed, OOM, segfault, node lost) closes its end, which the parent
observes as EOF at the next reply — a ``("died", ...)`` reply, raised by the
pool as :class:`~repro.distributed.worker.WorkerDied` — or as a failed send
at the next ingest push.  The error/died distinction comes from the stream
itself, never from an after-the-fact pid poll: a dying worker closes its
wire before its pid disappears, so polling races.  Fault injection tests in
``tests/distributed/test_faults.py`` pin this down for both connection modes.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import pickle
import socket as socket_mod
import struct
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..graphblas import coords
from ..graphblas import _kernels as K
from ..graphblas.errors import InvalidIndex
from ..graphblas.types import lookup_dtype
from . import node as node_mod
from .node import RemoteWorkerHandle, ValueCodec, parse_address
from .worker import WorkerCrash, WorkerDied

__all__ = ["ShardTransport", "SocketTransport", "SOCKET_BUFFER_BYTES"]

#: Kernel send and receive buffer of both ends of a forked slot's
#: ``socketpair``.  Sized by measurement (2-vCPU x86-64 host, the bench
#: ``trickle`` stream replayed 3x into 2 forked shards): 4 MiB buffers let
#: the router run several batches ahead of a busy worker and carried
#: ~1.1x the updates/s of the kernel default (208 KiB).  The kernel caps it
#: at ``net.core.wmem_max``/``rmem_max``.
SOCKET_BUFFER_BYTES = 4 << 20

#: How long closing or respawning a forked slot waits for the old child to
#: exit on its own (``stop`` frame or EOF) before killing it.
_JOIN_SECONDS = 5.0


class ShardTransport:
    """The wire interface the pool speaks; implementations own the endpoint.

    A transport moves the three traffic kinds of the module docstring for
    ``nworkers`` worker slots and owns whatever is behind each slot (a
    forked child, a connection to an agent-hosted worker).
    """

    #: Wire name reported by the pool; set by subclasses.
    name: str = ""

    nworkers: int = 0

    def send_ingest(self, worker: int, rows, cols, values, keys=None) -> None:
        """Dispatch one ``(rows, cols, values)`` batch; fire-and-forget.

        ``keys`` optionally carries the router's already-packed ``uint64``
        coordinate keys for these rows/cols (always
        ``coords.pack(rows, cols, shape_split(nrows, ncols))``); the wire
        sends them as-is instead of packing a second time.
        """
        raise NotImplementedError

    def send_control(self, worker: int, cmd: str, payload=None) -> None:
        """Dispatch one non-ingest command; replies come via :meth:`recv_reply`."""
        raise NotImplementedError

    def recv_reply(self, worker: int) -> Tuple[str, Any]:
        """Block for the next ``(status, value)`` reply from ``worker``.

        A dead worker produces a ``("died", ...)`` reply instead of a hang;
        a worker that merely raised replies ``("error", traceback)`` and
        keeps serving.
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


def _serve_forked(conn, inherited, slot: int, matrix_kwargs) -> None:
    """Forked worker: keep only our own end of the wire, then serve it.

    ``inherited`` is every parent-side end the fork copied — this slot's and
    every sibling's.  A copy left open here would keep that connection's
    peer alive after the parent closed its end, so a worker whose parent end
    is closed (or whose parent died) would never see EOF.
    """
    for sock in inherited:
        sock.close()
    node_mod._serve_connection(conn, slot, matrix_kwargs)


class SocketTransport(ShardTransport):
    """One stream socket per worker slot: forked locally or dialled.

    Ingest crosses as packed-key + raw-value-bit frames (key-only for
    all-ones batches); control commands and replies share the same stream,
    so per-worker FIFO ordering — and with it the barrier semantics of
    reply-bearing commands — holds because a byte stream cannot reorder.
    Configurations the binary frames cannot carry (unpackable IPv6 shapes,
    > 8-byte value types) use pickled ingest frames on the same connection.

    Parameters
    ----------
    nworkers:
        Worker slots to open.
    matrix_kwargs:
        Shard matrix configuration of every worker.
    nodes:
        Agent endpoints — ``"host:port"`` strings or ``(host, port)`` pairs.
        Without them each slot is a child forked over a ``socketpair``
        (needs ``os.fork``).
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
        nodes: Optional[List] = None,
        placement: Optional[List[int]] = None,
    ):
        self.nworkers = int(nworkers)
        self._matrix_kwargs = dict(matrix_kwargs or {})
        self._nodes = [parse_address(a) for a in nodes] if nodes else None
        if self._nodes is None:
            if not hasattr(os, "fork"):
                raise RuntimeError(
                    "process-backed shards need os.fork to start local workers; "
                    "use use_processes=False or pass nodes= (NodeAgent endpoints)"
                )
            self.placement = None
        else:
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
        self._conns: List[Optional[socket_mod.socket]] = [None] * self.nworkers
        self._handles: List = [None] * self.nworkers
        self._closed = False
        try:
            for slot in range(self.nworkers):
                self._open(slot)
        except Exception:
            self.close()
            raise

    def _open(self, slot: int) -> None:
        if self._nodes is None:
            self._fork(slot)
        else:
            self._dial(slot)

    def _fork(self, slot: int) -> None:
        ours, theirs = socket_mod.socketpair()
        for end in (ours, theirs):
            for opt in (socket_mod.SO_SNDBUF, socket_mod.SO_RCVBUF):
                end.setsockopt(socket_mod.SOL_SOCKET, opt, SOCKET_BUFFER_BYTES)
        self._conns[slot] = ours
        inherited = [c for c in self._conns if c is not None]
        proc = mp.get_context("fork").Process(
            target=_serve_forked,
            args=(theirs, inherited, slot, self._matrix_kwargs),
            daemon=True,
        )
        try:
            proc.start()
        finally:
            # Only the child may hold the worker's end: its death must be
            # this end's EOF.
            theirs.close()
        self._handles[slot] = proc

    def _dial(self, slot: int) -> None:
        address = self._nodes[self.placement[slot]]
        conn = socket_mod.create_connection(address, timeout=30)
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
                f"node agent at {address} did not acknowledge worker slot {slot}"
            )
        conn.settimeout(None)
        ack = pickle.loads(bytes(frame[1]))
        self._conns[slot] = conn
        self._handles[slot] = RemoteWorkerHandle(int(ack["pid"]))

    # Wire implementation ------------------------------------------------- #

    def send_ingest(self, worker: int, rows, cols, values, keys=None) -> None:
        if self._spec is not None and self._codec is not None:
            if keys is None:
                r = K.as_index_array(rows, "rows")
                c = K.as_index_array(cols, "cols")
                if r.size == 0:
                    return
                if int(r.max()) >= self._nrows or int(c.max()) >= self._ncols:
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
        """Send one command frame.  A control sent to a dead worker is
        dropped silently: the death surfaces at the next :meth:`recv_reply`
        (as a ``"died"`` reply), which is where every caller that expects an
        answer is already waiting."""
        with contextlib.suppress(WorkerDied):
            self._send(
                worker,
                node_mod.F_CONTROL,
                pickle.dumps((cmd, payload), protocol=pickle.HIGHEST_PROTOCOL),
            )

    def _send(self, worker: int, ftype: int, payload: bytes) -> None:
        try:
            node_mod.send_frame(self._conns[worker], ftype, payload)
        except OSError as exc:
            raise WorkerDied(
                f"shard worker {worker} is gone; socket send failed: {exc}"
            ) from exc

    def recv_reply(self, worker: int) -> Tuple[str, Any]:
        frame = node_mod.recv_frame(self._conns[worker])
        if frame is None or frame[0] != node_mod.F_REPLY:
            # EOF delivers buffered replies first, so reaching this point
            # means the worker truly died before replying.
            return (
                "died",
                f"worker process died (connection to pid "
                f"{self._handles[worker].pid} lost) without replying",
            )
        return pickle.loads(bytes(frame[1]))

    def worker_alive(self, worker: int) -> bool:
        return self._handles[worker].is_alive()

    def respawn(self, worker: int) -> None:
        """Give the slot a fresh (empty) worker on a fresh connection.

        The old connection is never reused: a worker killed mid-frame can
        leave a partial frame in it, and replies to commands the dead worker
        never read would desynchronise the reply stream.  A forked slot
        joins its old child (which exits on the EOF of the closed end if it
        is still alive) and forks again; a dialled slot re-dials its agent,
        which forks the replacement.
        """
        with contextlib.suppress(OSError):
            self._conns[worker].close()
        if self._nodes is None:
            self._reap(self._handles[worker])
        self._open(worker)

    @staticmethod
    def _reap(proc) -> None:
        proc.join(timeout=_JOIN_SECONDS)
        if proc.is_alive():  # pragma: no cover - wedged worker
            proc.kill()
            proc.join()

    @property
    def processes(self) -> List:
        """Per-slot handles: ``multiprocessing.Process`` for forked slots,
        pid-backed :class:`~repro.distributed.node.RemoteWorkerHandle` for
        agent-hosted ones (valid for agents on this machine)."""
        return list(self._handles)

    # Lifecycle ----------------------------------------------------------- #

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker, conn in enumerate(self._conns):
            if conn is not None:
                self.send_control(worker, "stop")
        for conn in self._conns:
            if conn is not None:
                with contextlib.suppress(OSError):
                    conn.close()
        if self._nodes is None:
            for proc in self._handles:
                if proc is not None:
                    self._reap(proc)
