"""Blocking gateway client: binary update frames out, epoch-tagged reads back.

:class:`GatewayClient` mirrors the encoding decisions of the socket
transport's ingest path (packed-key binary frames, key-only all-ones
batches, pickled fallback for unpackable shapes/dtypes) using the matrix
parameters the HELLO acknowledgement advertises, so a client never needs the
matrix object — just the gateway address.

Updates are fire-and-forget; :meth:`sync` flushes the gateway's coalescer
and returns the count of updates *applied* for this connection (an ingest
error latched since the last sync raises :class:`GatewayError` instead —
the worker protocol's error-latching semantics, surfaced end to end).
Every snapshot read returns the value together with the partition-map epoch
it was served at (:attr:`last_epoch` keeps the most recent one).
"""

from __future__ import annotations

import os
import pickle
import socket
from typing import Optional

import numpy as np

from ..distributed.node import (
    F_CONTROL,
    F_DATA,
    F_DATA_KEYONLY,
    F_DATA_PICKLED,
    F_HELLO,
    F_HELLO_ACK,
    F_REPLY,
    ValueCodec,
    parse_address,
    recv_frame,
    send_frame,
    send_pickled,
)
from ..graphblas import _kernels as K
from ..graphblas import coords
from ..graphblas.errors import InvalidIndex
from ..graphblas.types import lookup_dtype
from .gateway import F_SET_OP, GatewayError

__all__ = ["GatewayClient"]


class GatewayClient:
    """One connection to an :class:`~repro.service.IngestGateway`.

    Parameters
    ----------
    address:
        ``"host:port"`` or ``(host, port)`` of a running gateway.
    client_id:
        Name reported in the HELLO (defaults to a pid-unique string).
    timeout:
        Socket timeout for connects and replies, seconds.
    """

    def __init__(self, address, *, client_id: Optional[str] = None, timeout: float = 60.0):
        self.client_id = client_id or f"client-{os.getpid()}-{id(self):x}"
        self._sock = socket.create_connection(parse_address(address), timeout=timeout)
        self._sock.settimeout(timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._closed = False
        try:
            send_pickled(self._sock, F_HELLO, {"client": self.client_id})
            frame = recv_frame(self._sock)
            if frame is None:
                raise GatewayError("gateway closed the connection during handshake")
            if frame[0] == F_REPLY:
                _status, value = pickle.loads(bytes(frame[1]))
                raise GatewayError(str(value))
            if frame[0] != F_HELLO_ACK:
                raise GatewayError(f"unexpected handshake frame type {frame[0]}")
            self.info = pickle.loads(bytes(frame[1]))
        except BaseException:
            self._sock.close()
            raise
        self._nrows = int(self.info["nrows"])
        self._ncols = int(self.info["ncols"])
        self._spec = coords.shape_split(self._nrows, self._ncols)
        np_type = lookup_dtype(self.info["dtype"]).np_type
        self._codec = ValueCodec(np_type) if np_type.itemsize <= 8 else None
        self._op = self.info["accum"]
        #: Partition-map epoch of the most recent reply.
        self.last_epoch = int(self.info.get("epoch", 0))
        #: Updates sent on this connection (acknowledged or not).
        self.sent_updates = 0

    # -- ingest ------------------------------------------------------------ #

    def update(self, rows, cols, values=1, *, op: Optional[str] = None) -> None:
        """Send one update batch (fire-and-forget; see :meth:`sync`)."""
        if self._closed:
            raise GatewayError("client is closed")
        if op is not None and op != self._op:
            send_frame(self._sock, F_SET_OP, op.encode("utf-8"))
            self._op = op
        if self._spec is not None and self._codec is not None:
            r = K.as_index_array(rows, "rows")
            c = K.as_index_array(cols, "cols")
            if r.size == 0:
                return
            if int(r.max()) >= self._nrows or int(c.max()) >= self._ncols:
                raise InvalidIndex(
                    f"coordinate batch exceeds the {self._nrows}x{self._ncols} shape"
                )
            keys = coords.pack(r, c, self._spec)
            scalar = np.isscalar(values) or (
                isinstance(values, np.ndarray) and values.ndim == 0
            )
            bits = self._codec.encode(values, 1 if scalar else keys.size)
            if self._codec.encodes_to_ones(values, bits):
                self._send(F_DATA_KEYONLY, keys.tobytes())
            else:
                if scalar:
                    bits = self._codec.encode(values, keys.size)
                self._send(F_DATA, keys.tobytes() + bits.tobytes())
            self.sent_updates += int(r.size)
            return
        r = K.as_index_array(rows, "rows")
        if r.size == 0:
            return
        self._send(
            F_DATA_PICKLED,
            pickle.dumps((rows, cols, values), protocol=pickle.HIGHEST_PROTOCOL),
        )
        self.sent_updates += int(r.size)

    def sync(self) -> dict:
        """Flush + acknowledge: ``{"acked": <applied updates>, "epoch": ...}``.

        Raises :class:`GatewayError` if any ingest error latched on this
        connection since the previous sync (the connection keeps serving).
        """
        value = self._request("sync")
        self.last_epoch = int(value["epoch"])
        return value

    # -- snapshot reads ---------------------------------------------------- #

    def stats(self) -> dict:
        """Degree/traffic summary served from the incremental trackers."""
        return self._read("stats")

    def top(self, k: int = 10) -> dict:
        """Top-K supernode report (sources/destinations with shares)."""
        return self._read("top", int(k))

    def get(self, row: int, col: int):
        """Point query; ``None`` for an unstored coordinate."""
        return self._read("get", (int(row), int(col)))

    def nnz(self) -> int:
        """Exact logical entry count."""
        return int(self._read("nnz"))

    def epoch(self) -> int:
        """Current partition-map epoch (bumps on every migration/failover)."""
        return int(self._read("epoch"))

    def pressure(self) -> float:
        """Worst transport watermark behind the gateway (0..1)."""
        return float(self._read("pressure"))

    def shard_loads(self, by: str = "nnz") -> list:
        return self._read("shard_loads", by)

    def imbalance(self, by: str = "nnz") -> float:
        return float(self._read("imbalance", by))

    def gateway_metrics(self) -> dict:
        """The gateway's observability counters."""
        return self._read("metrics")

    def rebalance_events(self) -> list:
        """Migrations the gateway's auto-rebalancer performed, in order."""
        return self._read("rebalance_events")

    def rejoin_events(self) -> list:
        """Replica rejoins the gateway's auto-rejoiner completed, in order."""
        return self._read("rejoin_events")

    def missing_replicas(self) -> int:
        """Replica slots currently retired behind the gateway (0 = full budget)."""
        return int(self._read("missing_replicas"))

    # -- plumbing ---------------------------------------------------------- #

    def _send(self, ftype: int, payload) -> None:
        try:
            send_frame(self._sock, ftype, payload)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise GatewayError(f"gateway connection lost: {exc}") from exc

    def _request(self, cmd: str, payload=None):
        if self._closed:
            raise GatewayError("client is closed")
        try:
            send_pickled(self._sock, F_CONTROL, (cmd, payload))
            frame = recv_frame(self._sock)
        except (BrokenPipeError, ConnectionResetError, socket.timeout, OSError) as exc:
            raise GatewayError(f"gateway connection lost: {exc}") from exc
        if frame is None:
            raise GatewayError("gateway closed the connection")
        ftype, data = frame
        if ftype != F_REPLY:
            raise GatewayError(f"unexpected reply frame type {ftype}")
        status, value = pickle.loads(bytes(data))
        if status != "ok":
            raise GatewayError(str(value))
        return value

    def _read(self, cmd: str, payload=None):
        value = self._request(cmd, payload)
        self.last_epoch = int(value["epoch"])
        return value["value"]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GatewayClient {self.client_id} epoch={self.last_epoch}>"
