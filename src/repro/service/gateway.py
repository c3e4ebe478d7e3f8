"""The asyncio ingestion gateway: many client sockets in, one matrix behind.

Protocol
--------
The wire is the shard wire's framing (:mod:`repro.distributed.codec`: 9-byte
``<BQ`` length-prefixed frames, the same frame types and the same
:class:`~repro.distributed.codec.BatchCodec` data frames), so everything the
socket transport learned about framing — FIFO byte streams as barriers,
key-only all-ones batches, ``uint64`` COO columns for unpackable shapes —
carries over:

* ``F_HELLO`` ``{"client": name}`` → ``F_HELLO_ACK`` with the matrix shape,
  dtype, accumulator and the gateway's coalescing bound, so the client can
  build the same packed-key codec the shard wire uses.
* ``F_DATA`` / ``F_DATA_KEYONLY`` / ``F_DATA_COO`` — update batches,
  fire-and-forget (acknowledged collectively by the next ``sync``).  A frame
  that is not a whole number of records is refused and latched.
* ``F_SET_OP`` (gateway extension) — switches the connection's combine
  operator; any switch flushes coalesced updates first (single-combiner
  rule), and an operator other than the matrix accumulator is refused.
* ``F_CONTROL`` ``(cmd, payload)`` → ``F_REPLY`` ``(status, value)`` —
  ``sync`` plus the snapshot reads (``stats``, ``top``, ``get``, ``nnz``,
  ...).  Every snapshot reply carries the partition-map epoch it was served
  at; because all matrix access happens on the event-loop thread, the value
  is exactly the state at that epoch (no torn reads across a migration).

Failure semantics mirror the worker protocol: an ingest error (bad range,
wrong operator, dead un-replicated backend) latches on the connection, is
reported by the next reply-bearing command, and the connection keeps
serving.  Acknowledgements count only updates that were actually applied
(with ``replicas >= 1`` the pool mirrors at submit, so acknowledged batches
survive a primary SIGKILL — the PR-6 zero-lost-updates guarantee, now
end-to-end).

Backpressure
------------
The gateway never buffers more than one coalescer window plus one in-flight
frame per connection.  Applying a batch first consults the matrix's
:meth:`ingest_pressure` (the transport watermarks): above ``high_watermark``
the route coroutine sleeps until pressure falls to ``low_watermark``.  While
it sleeps, its connection is not being read, so the kernel's TCP window
fills and the producing client blocks in ``send`` — per-client backpressure
with bounded gateway memory and no bookkeeping.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Dict, List, Optional, Set

from ..distributed.codec import (
    DATA_FRAMES,
    F_CONTROL,
    F_DATA_KEYONLY,
    F_HELLO,
    F_HELLO_ACK,
    F_REPLY,
    F_SET_OP,
    HEADER,
    BatchCodec,
    load_pickled,
    pickled_frame,
)
from ..distributed.node import format_address
from ..graphblas import coords
from ..graphblas.errors import InvalidIndex
from .coalesce import BatchCoalescer, CoalescedBatch
from .rebalancer import AutoRebalancer
from .rejoin import AutoRejoiner

__all__ = ["GatewayError", "IngestGateway"]


class GatewayError(RuntimeError):
    """A gateway-side failure surfaced to a client (handshake/sync/read)."""


class _Connection:
    """Per-client state the handler and the ack accounting share."""

    __slots__ = ("name", "op", "received", "acked", "error", "writer")

    def __init__(self, name: str, op: str, writer) -> None:
        self.name = name
        self.op = op
        self.received = 0  # updates parsed off this connection
        self.acked = 0  # updates applied to the matrix
        self.error: Optional[str] = None  # latched, reported at next reply
        self.writer = writer


class IngestGateway:
    """Serve one (sharded) hierarchical matrix to many socket clients.

    Parameters
    ----------
    matrix:
        A :class:`~repro.distributed.ShardedHierarchicalMatrix` (or a plain
        :class:`~repro.core.HierarchicalMatrix` for single-node serving).
    host, port:
        Listen address; ``port=0`` picks a free port (bound at construction,
        so :attr:`address` is known before :meth:`start`).
    coalesce_updates:
        Batch bound of the :class:`BatchCoalescer`.
    flush_interval:
        Seconds between background flushes of trickle traffic (small batches
        that never fill a coalescer window still land without a ``sync``).
    max_frame_bytes:
        Admission control: frames larger than this are refused and the
        connection closed.
    max_clients:
        Admission control: concurrent connections beyond this are refused at
        HELLO.
    high_watermark, low_watermark:
        Transport-pressure hysteresis band for pausing ingest (fractions of
        wire capacity; see module docstring).
    rebalancer:
        Optional :class:`AutoRebalancer` over the same matrix; the gateway
        starts its thread and marshals every policy step onto the event loop
        so the policy never races ingest.
    rejoiner:
        Optional :class:`AutoRejoiner` over the same matrix; hosted exactly
        like the rebalancer (own thread, steps dispatched onto the loop), it
        re-dials restarted node agents and resyncs retired replicas
        hands-off.
    own_matrix:
        Close the matrix when the gateway closes (the CLI passes True).
    """

    def __init__(
        self,
        matrix,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        coalesce_updates: int = 8192,
        flush_interval: float = 0.05,
        max_frame_bytes: int = 1 << 26,
        max_clients: int = 4096,
        high_watermark: float = 0.75,
        low_watermark: float = 0.25,
        backlog: int = 512,
        rebalancer: Optional[AutoRebalancer] = None,
        rejoiner: Optional[AutoRejoiner] = None,
        own_matrix: bool = False,
    ):
        if not (0.0 <= low_watermark <= high_watermark):
            raise ValueError(
                f"watermarks must satisfy 0 <= low <= high, got {low_watermark}/{high_watermark}"
            )
        self._matrix = matrix
        self._coalescer = BatchCoalescer(coalesce_updates)
        self._flush_interval = max(float(flush_interval), 0.001)
        self._max_frame_bytes = int(max_frame_bytes)
        self._max_clients = int(max_clients)
        self._high = float(high_watermark)
        self._low = float(low_watermark)
        self.rebalancer = rebalancer
        self.rejoiner = rejoiner
        self._own_matrix = bool(own_matrix)
        self._accum = matrix.accum.name
        # The sharded matrix accepts the wire's packed keys straight through
        # (one pack per update across the whole gateway path); plain
        # hierarchical matrices and test fakes do not take the keyword.
        try:
            import inspect

            self._update_takes_keys = "keys" in inspect.signature(matrix.update).parameters
        except (TypeError, ValueError):  # pragma: no cover - exotic callables
            self._update_takes_keys = False
        self._codec = BatchCodec(matrix.nrows, matrix.ncols, matrix.dtype)
        self._conns: Set[_Connection] = set()
        self._metrics: Dict[str, int] = {
            "clients_total": 0,
            "open_clients": 0,
            "received_updates": 0,
            "routed_updates": 0,
            "routed_batches": 0,
            "key_only_frames": 0,
            "backpressure_waits": 0,
            "max_buffered_updates": 0,
            "rejected_frames": 0,
            "errors": 0,
        }
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._route_lock = asyncio.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._closing = False
        self._closed = False
        self._startup_error: Optional[BaseException] = None
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, int(port)))
        self._sock.listen(int(backlog))
        self._sock.setblocking(False)

    # -- lifecycle --------------------------------------------------------- #

    @property
    def address(self):
        """``(host, port)`` the gateway listens on (known before start)."""
        return self._sock.getsockname()

    @property
    def matrix(self):
        return self._matrix

    def start(self) -> "IngestGateway":
        """Start the event-loop thread (idempotent); returns self."""
        if self._thread is not None or self._closed:
            return self
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(started,), daemon=True, name="repro-gateway"
        )
        self._thread.start()
        if not started.wait(timeout=10) or self._startup_error is not None:
            err = self._startup_error or RuntimeError("gateway failed to start")
            self.close()
            raise err
        if self.rebalancer is not None:
            self.rebalancer.start(dispatch=self._dispatch)
        if self.rejoiner is not None:
            self.rejoiner.start(dispatch=self._dispatch)
        return self

    def _run(self, started: threading.Event) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main(started))
        except BaseException as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
        finally:
            started.set()
            self._loop.close()

    async def _main(self, started: threading.Event) -> None:
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._handle, sock=self._sock)
        flusher = asyncio.ensure_future(self._flush_loop())
        started.set()
        await self._stop_event.wait()
        # Shutdown: stop accepting, wake clients with EOF, let the handlers
        # finish, then drain everything accepted into the coalescer.
        self._closing = True
        server.close()
        await server.wait_closed()
        flusher.cancel()
        for conn in list(self._conns):
            try:
                conn.writer.close()
            except Exception:  # pragma: no cover - already torn down
                pass
        # Handlers end by themselves on the EOF their closed writers cause;
        # cancelling one mid-read would log a CancelledError traceback, so
        # only those still running after a grace period are cancelled.
        current = asyncio.current_task()
        pending = [t for t in asyncio.all_tasks(self._loop) if t is not current]
        if pending:
            _done, running = await asyncio.wait(pending, timeout=1.0)
            for task in running:
                task.cancel()
            if running:
                await asyncio.gather(*running, return_exceptions=True)
        self._route_sync(self._coalescer.flush())

    def close(self) -> None:
        """Drain and stop the gateway; idempotent.

        Everything accepted into the coalescer before shutdown is applied to
        the matrix; connected clients observe a clean EOF.
        """
        if self._closed:
            return
        self._closed = True
        if self.rebalancer is not None:
            self.rebalancer.stop()
        if self.rejoiner is not None:
            self.rejoiner.stop()
        if self._thread is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=15)
        self._thread = None
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass
        if self._own_matrix:
            self._matrix.close()

    def __enter__(self) -> "IngestGateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- cross-thread helpers ---------------------------------------------- #

    def _dispatch(self, fn):
        """Run ``fn()`` on the event-loop thread and return its result."""
        if self._loop is None or self._closed:
            raise RuntimeError("gateway is not running")

        async def call():
            return fn()

        return asyncio.run_coroutine_threadsafe(call(), self._loop).result(timeout=60)

    def rebalance_now(self) -> List:
        """Force one rebalancer step on the loop thread; returns its reports."""
        if self.rebalancer is None:
            return []
        return self._dispatch(lambda: self.rebalancer.step(force=True))

    def rejoin_now(self) -> List:
        """Force one rejoin step on the loop thread; returns its events."""
        if self.rejoiner is None:
            return []
        return self._dispatch(lambda: self.rejoiner.step(force=True))

    def metrics(self) -> Dict[str, int]:
        """Snapshot of the gateway counters (observability + tests)."""
        out = dict(self._metrics)
        out["buffered_updates"] = self._coalescer.pending_updates
        return out

    # -- ingest path (event-loop thread only) ------------------------------ #

    def _epoch(self) -> int:
        return int(getattr(self._matrix, "map_epoch", 0))

    def _pressure(self) -> float:
        fn = getattr(self._matrix, "ingest_pressure", None)
        return float(fn()) if fn is not None else 0.0

    async def _route(self, batches: List[CoalescedBatch]) -> None:
        # The lock serializes application order and, crucially, makes reads
        # and syncs (which route an empty flush) wait out any in-flight
        # batch parked in the backpressure sleep below — otherwise a sync
        # could ack while the flush loop still holds undelivered updates.
        async with self._route_lock:
            for batch in batches:
                if self._high > 0.0 and self._pressure() >= self._high:
                    self._metrics["backpressure_waits"] += 1
                    while not self._closing and self._pressure() > self._low:
                        await asyncio.sleep(self._flush_interval / 4)
                self._apply(batch)

    def _route_sync(self, batch: Optional[CoalescedBatch]) -> None:
        if batch is not None:
            self._apply(batch)

    def _apply(self, batch: CoalescedBatch) -> None:
        try:
            if batch.op != self._accum:
                raise GatewayError(
                    f"operator {batch.op!r} does not match the gateway "
                    f"accumulator {self._accum!r}"
                )
            if batch.keys is not None and self._update_takes_keys:
                self._matrix.update(batch.rows, batch.cols, batch.values, keys=batch.keys)
            else:
                self._matrix.update(batch.rows, batch.cols, batch.values)
        except Exception as exc:
            self._metrics["errors"] += 1
            detail = f"{type(exc).__name__}: {exc}"
            for conn, _count in batch.segments:
                if conn.error is None:
                    conn.error = detail
            return
        for conn, count in batch.segments:
            conn.acked += count
        self._metrics["routed_updates"] += batch.size
        self._metrics["routed_batches"] += 1

    async def _flush_loop(self) -> None:
        while True:
            await asyncio.sleep(self._flush_interval)
            batch = self._coalescer.flush()
            if batch is not None:
                await self._route([batch])

    # -- connection handling ----------------------------------------------- #

    async def _read_frame(self, reader: asyncio.StreamReader):
        try:
            header = await reader.readexactly(HEADER.size)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        ftype, length = HEADER.unpack(header)
        if length > self._max_frame_bytes:
            raise GatewayError(
                f"frame of {length} bytes exceeds the gateway bound "
                f"({self._max_frame_bytes})"
            )
        payload = await reader.readexactly(length) if length else b""
        return ftype, payload

    @staticmethod
    def _reply(writer: asyncio.StreamWriter, status: str, value) -> None:
        writer.write(pickled_frame(F_REPLY, (status, value)))

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        conn: Optional[_Connection] = None
        try:
            frame = await self._read_frame(reader)
            if frame is None or frame[0] != F_HELLO:
                writer.close()
                return
            hello = load_pickled(frame[1])
            if len(self._conns) >= self._max_clients:
                self._reply(writer, "error", "gateway full: too many clients")
                await writer.drain()
                writer.close()
                return
            conn = _Connection(str(hello.get("client", "?")), self._accum, writer)
            self._conns.add(conn)
            self._metrics["clients_total"] += 1
            self._metrics["open_clients"] = len(self._conns)
            writer.write(pickled_frame(
                F_HELLO_ACK,
                {
                    "server": "repro-gateway",
                    "nrows": self._matrix.nrows,
                    "ncols": self._matrix.ncols,
                    "dtype": self._matrix.dtype.name,
                    "accum": self._accum,
                    "epoch": self._epoch(),
                    "coalesce_updates": self._coalescer.max_updates,
                    "max_frame_bytes": self._max_frame_bytes,
                },
            ))
            await writer.drain()
            while not self._closing:
                frame = await self._read_frame(reader)
                if frame is None:
                    break
                await self._dispatch_frame(conn, frame[0], frame[1], writer)
        except GatewayError as exc:
            # Admission refusal: tell the client why, then hang up.
            self._metrics["rejected_frames"] += 1
            try:
                self._reply(writer, "error", str(exc))
                await writer.drain()
            except (ConnectionResetError, OSError):
                pass
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            pass
        finally:
            if conn is not None:
                self._conns.discard(conn)
                self._metrics["open_clients"] = len(self._conns)
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    def _decode_data(self, ftype: int, payload: bytes):
        """Decode one data frame to ``(rows, cols, values, keys)``.

        The keys of a keyed frame are what the router packs, so they ride
        the coalescer to the matrix, which then skips re-packing
        (``F_DATA_COO`` frames have none: ``keys`` is ``None``).
        """
        batch = self._codec.decode(ftype, payload)
        if len(batch) == 2:
            keys, values = batch
            r, c = coords.unpack(keys, self._codec.spec)
        else:
            keys = None
            r, c, values = batch
        if ftype == F_DATA_KEYONLY:
            self._metrics["key_only_frames"] += 1
        if r.size and (int(r.max()) >= self._matrix.nrows or int(c.max()) >= self._matrix.ncols):
            raise InvalidIndex(
                f"coordinate batch exceeds the "
                f"{self._matrix.nrows}x{self._matrix.ncols} shape"
            )
        return r, c, values, keys

    async def _dispatch_frame(self, conn: _Connection, ftype: int, payload: bytes, writer) -> None:
        if ftype in DATA_FRAMES:
            if conn.error is not None:
                return  # latched: drop until the client observes the error
            try:
                r, c, values, keys = self._decode_data(ftype, payload)
            except Exception as exc:
                self._metrics["rejected_frames"] += 1
                conn.error = f"{type(exc).__name__}: {exc}"
                return
            conn.received += r.size
            self._metrics["received_updates"] += r.size
            emitted = self._coalescer.add(conn, r, c, values, op=conn.op, keys=keys)
            buffered = self._coalescer.pending_updates
            if buffered > self._metrics["max_buffered_updates"]:
                self._metrics["max_buffered_updates"] = buffered
            if emitted:
                await self._route(emitted)
        elif ftype == F_SET_OP:
            op = bytes(payload).decode("utf-8")
            if op != conn.op:
                # Single-combiner rule, end to end: flush before switching.
                await self._route([b] if (b := self._coalescer.flush()) else [])
                conn.op = op
            if op != self._accum and conn.error is None:
                conn.error = (
                    f"operator {op!r} does not match the gateway accumulator "
                    f"{self._accum!r} (single-combiner rule)"
                )
        elif ftype == F_CONTROL:
            cmd, arg = load_pickled(payload)
            await self._control(conn, cmd, arg, writer)
        # Unknown frame types are ignored (forward compatibility).

    async def _control(self, conn: _Connection, cmd: str, arg, writer) -> None:
        # Reads flush first so a client always reads its own writes.
        try:
            if cmd == "sync":
                await self._route([b] if (b := self._coalescer.flush()) else [])
                if conn.error is not None:
                    error, conn.error = conn.error, None
                    self._reply(writer, "error", error)
                else:
                    self._reply(writer, "ok", {"acked": conn.acked, "epoch": self._epoch()})
                await writer.drain()
                return
            value = await self._read_command(cmd, arg)
        except GatewayError as exc:
            self._reply(writer, "error", str(exc))
            await writer.drain()
            return
        except Exception as exc:
            self._reply(writer, "error", f"{type(exc).__name__}: {exc}")
            await writer.drain()
            return
        self._reply(writer, "ok", {"epoch": self._epoch(), "value": value})
        await writer.drain()

    async def _read_command(self, cmd: str, arg):
        from ..analytics import degree_summary, supernode_report

        await self._route([b] if (b := self._coalescer.flush()) else [])
        if cmd == "stats":
            return degree_summary(self._matrix)
        if cmd == "top":
            return supernode_report(self._matrix, int(arg or 10))
        if cmd == "get":
            row, col = arg
            return self._matrix.get(int(row), int(col))
        if cmd == "nnz":
            return int(self._matrix.nvals)
        if cmd == "epoch":
            return self._epoch()
        if cmd == "pressure":
            return self._pressure()
        if cmd == "shard_loads":
            return self._matrix.shard_loads(arg or "nnz")
        if cmd == "imbalance":
            return self._matrix.imbalance(arg or "nnz")
        if cmd == "metrics":
            return self.metrics()
        if cmd == "rebalance_events":
            events = self.rebalancer.events if self.rebalancer is not None else []
            return [
                {
                    "epoch": e.epoch,
                    "source": e.source,
                    "dest": e.dest,
                    "moved": e.moved,
                    "imbalance_before": e.imbalance_before,
                }
                for e in events
            ]
        if cmd == "rejoin_events":
            return list(self.rejoiner.events) if self.rejoiner is not None else []
        if cmd == "missing_replicas":
            fn = getattr(self._matrix, "missing_replicas", None)
            return int(fn()) if fn is not None else 0
        raise GatewayError(f"unknown gateway command {cmd!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<IngestGateway {format_address(self.address)} clients={len(self._conns)}>"
