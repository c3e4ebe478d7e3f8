"""The shard wire's frames and worker loop, and the agents that host workers.

Every process-backed shard worker serves one stream socket with
:func:`_serve_connection`: the connection *is* the worker's task queue,
ingest wire, and reply channel in one — a single FIFO byte stream, so a
reply-bearing control command is a barrier for exactly the ingest frames
sent before it.  :class:`~repro.distributed.transport.SocketTransport`
reaches a worker in one of two ways: it forks a local child over a
``socketpair``, or it dials a :class:`NodeAgent`, which owns the worker
lifecycle on its machine, exposes a ``host:port`` endpoint, and forks one
worker child per accepted connection.

Wire format (all little-endian; one 9-byte header per frame)::

    header   <BQ>  frame type, payload byte length
    HELLO         pickled {"slot": int, "matrix_kwargs": dict}   parent -> agent
    HELLO_ACK     pickled {"pid": int}                           worker -> parent
    DATA          n = len/16 uint64 packed keys, then n uint64 value bits
    DATA_KEYONLY  n = len/8 uint64 packed keys (values = scalar 1)
    DATA_PICKLED  pickled (rows, cols, values)  [IPv6 / wide-dtype fallback]
    CONTROL       pickled (command, payload)
    REPLY         pickled (status, value)

HELLO/HELLO_ACK is the agent handshake only; a forked worker starts serving
at once.  Ingest frames carry the PR-1 packed ``uint64`` coordinate keys plus
the :class:`ValueCodec` raw value bits — no pickle on the hot path.
All-ones batches (the traffic workload) ship key-only.  Shapes that do not
pack into 64 bits and value types wider than 8 bytes fall back to pickled
ingest frames on the same connection, so the wire serves *every* shard
configuration.

Failure model: an agent's worker child sets ``PR_SET_PDEATHSIG`` so a
SIGKILLed agent takes its workers down with it; a forked worker holds only
its own end of the connection, so the router's death (or the router closing
its end) is the worker's EOF.  A dead worker closes its connection — the parent observes
EOF (reply path) or a send error (ingest path) instead of hanging.  The
fault battery kills agent-hosted workers through :class:`RemoteWorkerHandle`,
which wraps the HELLO_ACK pid in the ``Process``-like surface (``kill`` /
``is_alive`` / ``join``) forked workers have natively; pid-based liveness is
meaningful for the localhost agents the tests and benchmarks run — for
genuinely remote nodes only the socket EOF signal applies.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing as mp
import os
import pickle
import signal
import socket
import struct
import time
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from ..graphblas.types import lookup_dtype

__all__ = [
    "NodeAgent",
    "RemoteWorkerHandle",
    "ValueCodec",
    "spawn_local_agents",
    "restart_local_agent",
    "parse_address",
    "format_address",
]

# Frame types of the socket wire (module docstring has the layout).
F_HELLO = 1
F_HELLO_ACK = 2
F_DATA = 3
F_DATA_KEYONLY = 4
F_DATA_PICKLED = 5
F_CONTROL = 6
F_REPLY = 7

_HEADER = struct.Struct("<BQ")

#: Accept-loop tick: how often an idle agent reaps exited worker children.
_ACCEPT_TICK_SECONDS = 0.2

#: How long the agent waits for a connection's HELLO before dropping it.
_HELLO_TIMEOUT_SECONDS = 10.0

Address = Tuple[str, int]


def parse_address(addr: Union[str, Address]) -> Address:
    """Normalise ``"host:port"`` (or an ``(host, port)`` pair) to a pair."""
    if isinstance(addr, str):
        host, _, port = addr.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"expected 'host:port', got {addr!r}")
        return host, int(port)
    host, port = addr
    return str(host), int(port)


def format_address(addr: Union[str, Address]) -> str:
    """The canonical ``host:port`` string of an address."""
    host, port = parse_address(addr)
    return f"{host}:{port}"


class ValueCodec:
    """Bit-exact ``values <-> uint64`` wire codec for one shard value type.

    The sender converts values to the shard's dtype — the same (single)
    conversion :meth:`HierarchicalMatrix.update
    <repro.core.HierarchicalMatrix.update>` would apply worker-side — then
    transmits *raw bit patterns*: 8-byte types cross as their own bits,
    narrower types as zero-padded raw bytes.  No numeric widening happens
    after the dtype conversion, so even exotic payloads (signalling NaNs,
    negative zeros) cross unchanged and every framing built on this codec
    (ingest frames, migration slab payloads, gateway client frames) stays
    bit-identical to applying the values in-process.  Types wider than 8
    bytes are not representable (their batches travel as pickled frames).
    Producer and consumer share one machine, so native byte order is
    consistent by construction.
    """

    def __init__(self, np_type) -> None:
        self.np_type = np.dtype(np_type)
        self.itemsize = int(self.np_type.itemsize)
        if self.itemsize > 8:
            raise ValueError(
                f"value type {self.np_type} does not fit an 8-byte wire slot"
            )

    def encode(self, values, n: int) -> np.ndarray:
        """Bit pattern of ``values`` (scalar broadcast over ``n``) as uint64."""
        if np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0):
            typed = np.full(n, values, dtype=self.np_type)
        else:
            typed = np.ascontiguousarray(np.asarray(values), dtype=self.np_type)
        if self.itemsize == 8:
            return typed.view(np.uint64)
        out = np.zeros(typed.size, dtype=np.uint64)
        out.view(np.uint8).reshape(-1, 8)[:, : self.itemsize] = typed.view(
            np.uint8
        ).reshape(-1, self.itemsize)
        return out

    def decode(self, bits: np.ndarray) -> np.ndarray:
        """Invert :meth:`encode` back to a typed value array."""
        if self.itemsize == 8:
            return bits.view(self.np_type)
        raw = np.ascontiguousarray(
            bits.view(np.uint8).reshape(-1, 8)[:, : self.itemsize]
        )
        return raw.view(self.np_type).reshape(-1)

    @property
    def one_bits(self) -> np.uint64:
        """The encoded bit pattern of the scalar ``1`` in this value type.

        Key-only framing elides the value payload when every value equals 1
        — the dominant one-count-per-packet traffic workload — and the
        consumer re-synthesises it from this word.
        """
        return self.encode(1, 1)[0]

    def encodes_to_ones(self, values, bits: np.ndarray) -> bool:
        """Whether ``bits`` (the encoding of ``values``) is uniformly the
        all-ones pattern, i.e. the value payload can be elided on the wire.

        ``values`` is consulted only for the scalar fast path (one word
        compared instead of the whole array).
        """
        if np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0):
            return bool(bits[:1] == self.one_bits) if bits.size else True
        return bool(np.all(bits == self.one_bits))


# --------------------------------------------------------------------------- #
# frame I/O
# --------------------------------------------------------------------------- #


def send_frame(sock: socket.socket, ftype: int, payload) -> None:
    """Write one length-prefixed frame (header and payload in one send)."""
    sock.sendall(_HEADER.pack(ftype, len(payload)) + bytes(payload))


def send_pickled(sock: socket.socket, ftype: int, obj) -> None:
    """Write one frame whose payload is the pickled ``obj``."""
    send_frame(sock, ftype, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytearray]:
    """Read exactly ``n`` bytes, or None on EOF at a frame boundary.

    Returns a *writable* buffer so ingest arrays built on it need no second
    copy.  EOF in the middle of a frame is still returned as None — the peer
    died mid-send and the stream is unusable either way.
    """
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            r = sock.recv_into(view[got:], n - got)
        except (ConnectionResetError, BrokenPipeError, OSError):
            return None
        if r == 0:
            return None
        got += r
    return buf


def recv_frame(sock: socket.socket) -> Optional[Tuple[int, bytearray]]:
    """Read one ``(frame type, payload)`` frame, or None when the peer is gone."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    ftype, length = _HEADER.unpack(bytes(header))
    payload = _recv_exact(sock, int(length))
    if payload is None:
        return None
    return int(ftype), payload


# --------------------------------------------------------------------------- #
# worker side: the frame loop every process-backed worker runs
# --------------------------------------------------------------------------- #


def _set_parent_death_signal() -> None:
    """Arrange for SIGKILL when the agent (our parent) dies (Linux only).

    This is what makes "SIGKILL the node" mean "the node's workers are gone
    too" in the failover tests; on platforms without ``prctl`` the workers
    instead exit on the EOF their connection sees when the routing parent
    goes away.  Only agent children set it: the signal fires when the
    *thread* that forked the child exits, and a router forks local workers
    from whichever thread drives it (a gateway respawns replicas from its
    event-loop thread) — those workers rely on the EOF alone.
    """
    if not hasattr(os, "fork"):  # pragma: no cover - fork implies unix
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG = 1
    except Exception:  # pragma: no cover - non-Linux libc
        pass


class _SocketReplyChannel:
    """Adapter giving a connection the ``.put((status, value))`` surface the
    :class:`~repro.distributed.worker.CommandExecutor` reply protocol wants."""

    def __init__(self, conn: socket.socket) -> None:
        self._conn = conn

    def put(self, item) -> None:
        send_pickled(self._conn, F_REPLY, item)


def _serve_connection(conn: socket.socket, slot: int, matrix_kwargs) -> None:
    """Worker-child loop: one connection is task queue, wire, and replies.

    Frames are handled strictly in arrival order, so every control command is
    automatically a barrier against the ingest frames sent before it — the
    property the conformance battery pins for both connection modes.  The
    loop ends at a ``stop`` command or at EOF, i.e. once every copy of the
    routing parent's end of the connection is closed.
    """
    from .worker import CommandExecutor  # worker.py imports this module's codec

    executor = CommandExecutor(slot, matrix_kwargs, _SocketReplyChannel(conn))
    np_type = lookup_dtype(dict(matrix_kwargs or {}).get("dtype", "fp64")).np_type
    codec = ValueCodec(np_type) if np_type.itemsize <= 8 else None
    while True:
        frame = recv_frame(conn)
        if frame is None:
            break  # routing parent is gone; nothing left to serve
        ftype, payload = frame
        if ftype == F_DATA:
            n = len(payload) // 16
            keys = np.frombuffer(payload, dtype=np.uint64, count=n)
            bits = np.frombuffer(payload, dtype=np.uint64, count=n, offset=8 * n)
            executor.ingest(lambda: (keys, codec.decode(bits)))
        elif ftype == F_DATA_KEYONLY:
            keys = np.frombuffer(payload, dtype=np.uint64)
            # The producer proved every value's bit pattern equals scalar 1
            # in the shard dtype; the scalar fill in update_packed() stores
            # the identical bits.
            executor.ingest(lambda: (keys, 1))
        elif ftype == F_DATA_PICKLED:
            executor.ingest(lambda: pickle.loads(bytes(payload)))
        elif ftype == F_CONTROL:
            cmd, cmd_payload = pickle.loads(bytes(payload))
            if cmd == "stop":
                break
            executor.execute(cmd, cmd_payload)
        # Unknown frame types are ignored (forward compatibility).
    with contextlib.suppress(OSError):
        conn.shutdown(socket.SHUT_RDWR)
    conn.close()


# --------------------------------------------------------------------------- #
# the agent
# --------------------------------------------------------------------------- #


class NodeAgent:
    """Hosts shard workers behind a listening TCP endpoint.

    The socket is bound (and the final port chosen) in the constructor, so a
    caller can fork the serve loop into a separate process and already know
    the address to hand to connecting transports.  Each accepted connection
    carries one HELLO, gets one freshly forked worker child, and is then
    served entirely by that child; the agent itself only accepts and reaps.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *, backlog: int = 64):
        if not hasattr(os, "fork"):
            raise RuntimeError("NodeAgent requires a platform with os.fork")
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, int(port)))
        self._sock.listen(backlog)
        self.host, self.port = self._sock.getsockname()[:2]
        self._children: set = set()

    @property
    def address(self) -> Address:
        """The bound ``(host, port)`` endpoint."""
        return (self.host, self.port)

    def serve_forever(self) -> None:
        """Accept connections until the listening socket is closed."""
        self._sock.settimeout(_ACCEPT_TICK_SECONDS)
        while True:
            self._reap_children()
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listening socket closed: shut down
            self._spawn_worker(conn)

    def _spawn_worker(self, conn: socket.socket) -> None:
        conn.settimeout(_HELLO_TIMEOUT_SECONDS)
        try:
            frame = recv_frame(conn)
        except socket.timeout:  # pragma: no cover - defensive
            frame = None
        if frame is None or frame[0] != F_HELLO:
            conn.close()
            return
        hello = pickle.loads(bytes(frame[1]))
        pid = os.fork()
        if pid == 0:
            # Worker child: drop the listener, serve this connection forever.
            try:
                self._sock.close()
                conn.settimeout(None)
                # Armed before the ACK: a slot the router holds must die
                # with its agent.
                _set_parent_death_signal()
                send_pickled(conn, F_HELLO_ACK, {"pid": os.getpid()})
                _serve_connection(
                    conn, int(hello.get("slot", 0)), hello.get("matrix_kwargs")
                )
            finally:
                os._exit(0)
        self._children.add(pid)
        conn.close()

    def _reap_children(self) -> None:
        for pid in list(self._children):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                self._children.discard(pid)

    def close(self) -> None:
        """Stop accepting (the serve loop exits at its next tick)."""
        with contextlib.suppress(OSError):
            self._sock.close()


class RemoteWorkerHandle:
    """``multiprocessing.Process``-like view of an agent-hosted worker.

    Built from the pid in the worker's HELLO_ACK.  Gives the fault-injection
    suite the exact surface it already uses against forked workers —
    ``kill()`` / ``is_alive()`` / ``join()`` — valid whenever the agent runs
    on this machine (the localhost topology every test uses).
    """

    def __init__(self, pid: int) -> None:
        self.pid = int(pid)

    def is_alive(self) -> bool:
        try:
            os.kill(self.pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover - exists, not ours
            return True
        # Signal 0 succeeds on zombies too; poll the proc state so a worker
        # the agent has not yet reaped still reads as dead.
        try:
            with open(f"/proc/{self.pid}/stat", "rb") as fh:
                return fh.read().rsplit(b")", 1)[-1].split()[0:1] != [b"Z"]
        except OSError:
            return True

    def kill(self) -> None:
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)

    terminate = kill

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.is_alive():
            if deadline is not None and time.monotonic() > deadline:
                return
            time.sleep(0.01)

    @property
    def exitcode(self) -> Optional[int]:
        """None while alive; the true code belongs to the agent that reaps."""
        return None if self.is_alive() else -signal.SIGKILL


@contextlib.contextmanager
def spawn_local_agents(
    n: int, *, host: str = "127.0.0.1"
) -> Iterator[Tuple[List[Address], List[mp.Process]]]:
    """Run ``n`` NodeAgents as local processes; yield (addresses, processes).

    The agents' listening sockets are bound *before* the serve loops fork, so
    the yielded addresses are immediately connectable.  The process handles
    are exposed so fault tests can SIGKILL an agent (taking its workers with
    it via the parent-death signal); remaining agents are terminated on exit.
    """
    ctx = mp.get_context("fork")
    agents: List[NodeAgent] = []
    procs: List[mp.Process] = []
    try:
        # Bind and fork ONE agent at a time, closing the parent's copy of
        # each listener before the next agent is created.  Forking them all
        # from a single snapshot would leak every listening fd into every
        # sibling process — and then a SIGKILLed agent's endpoint stays
        # half-alive (connectable, never accepted) for as long as any
        # sibling runs, which both defeats rejoin (the replacement agent
        # cannot rebind the port) and turns the supervisor's re-dial into
        # an indefinite hang instead of a clean connection refusal.
        for _ in range(n):
            agent = NodeAgent(host)
            proc = ctx.Process(target=agent.serve_forever, daemon=True)
            proc.start()
            agent.close()
            agents.append(agent)
            procs.append(proc)
        yield [a.address for a in agents], procs
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5)
            if p.is_alive():  # pragma: no cover - defensive
                p.kill()


def restart_local_agent(
    address: Union[str, Address], *, attempts: int = 50, delay: float = 0.1
) -> mp.Process:
    """Start a fresh NodeAgent process re-binding a dead agent's ``address``.

    This is the operational half of the rejoin contract: the transport's
    ``respawn`` re-dials a retired slot's *original* endpoint, so recovery
    means bringing an agent back on exactly that ``host:port``.
    ``SO_REUSEADDR`` (set in :class:`NodeAgent`'s constructor) makes the
    rebind immediate even while old connections linger in ``TIME_WAIT``; the
    retry loop covers the brief window where the killed agent's listener has
    not been released by the kernel yet.  Like :func:`spawn_local_agents`,
    the socket is bound *before* the serve loop forks — when this returns,
    the endpoint is connectable and a rejoin supervisor's next resync
    attempt can succeed.  The caller owns the returned process handle.
    """
    host, port = parse_address(address)
    ctx = mp.get_context("fork")
    last_error: Optional[OSError] = None
    for _ in range(max(int(attempts), 1)):
        try:
            agent = NodeAgent(host, port)
        except OSError as exc:
            last_error = exc
            time.sleep(delay)
            continue
        proc = ctx.Process(target=agent.serve_forever, daemon=True)
        proc.start()
        agent.close()
        return proc
    raise RuntimeError(
        f"could not rebind agent endpoint {host}:{port}: {last_error}"
    )
