"""The wire codec: the one module that knows how frames and batches look.

Shard workers, node agents, the ingest gateway and its clients all speak
one framing, a 9-byte header and then the payload (little-endian)::

    header        <BQ>  frame type, payload byte length
    HELLO         pickled {"slot": int, "matrix_kwargs": dict}  parent -> agent
                  pickled {"client": str}                       client -> gateway
    HELLO_ACK     pickled {"pid": int}                          worker -> parent
                  pickled matrix parameters                     gateway -> client
    DATA          n uint64 packed keys, then n uint64 value bits
    DATA_KEYONLY  n uint64 packed keys (every value is scalar 1)
    DATA_COO      n uint64 rows, n uint64 cols, n uint64 value bits
    CONTROL       pickled (command, payload)
    REPLY         pickled (status, value)
    SET_OP        utf-8 operator name (gateway only: the connection's
                  combiner for the data frames that follow)

Data frames are 1-3 ``uint64`` columns, never pickled: keys are coordinates
packed under the shape's split (:func:`~repro.graphblas.coords.shape_split`),
value bits come from :class:`ValueCodec`, and :class:`BatchCodec` picks the
frame (``DATA_COO`` only for shapes with no 64-bit split, i.e. full IPv6).
Migrating slabs travel in the same encoding.  :func:`load_pickled` is the
one place a received payload is unpickled.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Optional, Tuple

import numpy as np

from ..graphblas import _kernels as K
from ..graphblas import coords
from ..graphblas.errors import DimensionMismatch, InvalidIndex
from ..graphblas.types import lookup_dtype

__all__ = ["BatchCodec", "ValueCodec"]

F_HELLO = 1
F_HELLO_ACK = 2
F_DATA = 3
F_DATA_KEYONLY = 4
F_DATA_COO = 5
F_CONTROL = 6
F_REPLY = 7
F_SET_OP = 8

#: ``uint64`` columns per record of each data frame type.
_COLUMNS = {F_DATA_KEYONLY: 1, F_DATA: 2, F_DATA_COO: 3}

#: The frame types that carry an update batch.
DATA_FRAMES = frozenset(_COLUMNS)

HEADER = struct.Struct("<BQ")


class ValueCodec:
    """Bit-exact ``values <-> uint64`` wire codec for one shard value type.

    The sender converts values to the shard's dtype — the same (single)
    conversion :meth:`HierarchicalMatrix.update
    <repro.core.HierarchicalMatrix.update>` would apply worker-side — then
    transmits *raw bit patterns*: 8-byte types cross as their own bits,
    narrower types as zero-padded raw bytes.  No numeric widening happens
    after the dtype conversion, so even exotic payloads (signalling NaNs,
    negative zeros) cross unchanged, bit-identical to applying the values
    in-process.  No GraphBLAS type is wider than 8 bytes.  Producer and
    consumer share one machine, so native byte order is consistent.
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


class BatchCodec:
    """Update batches of one matrix shape and value type <-> data frames.

    :meth:`decode` returns ``(keys, values)`` for keyed frames, ready for
    :meth:`HierarchicalMatrix.update_packed
    <repro.core.HierarchicalMatrix.update_packed>`, and ``(rows, cols,
    values)`` for ``DATA_COO``, which decodes under any shape.
    """

    def __init__(self, nrows: int, ncols: int, dtype="fp64") -> None:
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.spec = coords.shape_split(self.nrows, self.ncols)
        self.value_codec = ValueCodec(lookup_dtype(dtype).np_type)
        self._one = self.value_codec.encode(1, 1)[0]

    def encode(self, rows, cols, values, keys=None) -> Optional[Tuple[int, bytes]]:
        """The ``(frame type, payload)`` of one batch, or None if it is empty.

        ``values`` is an array or a scalar broadcast over the batch.
        ``keys`` optionally carries the coordinates already packed under the
        shape's split; they are sent as they are.  Coordinates outside the
        shape raise :class:`InvalidIndex`.
        """
        if keys is not None and self.spec is not None:
            keys = np.ascontiguousarray(keys, dtype=np.uint64)
            n = keys.size
        else:
            r = K.as_index_array(rows, "rows")
            c = K.as_index_array(cols, "cols")
            n = r.size
            if c.size != n:
                raise DimensionMismatch(
                    f"row and column index arrays differ in length ({n} vs {c.size})"
                )
            if n and (int(r.max()) >= self.nrows or int(c.max()) >= self.ncols):
                raise InvalidIndex(
                    f"coordinate batch exceeds the {self.nrows}x{self.ncols} shape"
                )
        if n == 0:
            return None
        scalar = np.isscalar(values) or (
            isinstance(values, np.ndarray) and values.ndim == 0
        )
        bits = self.value_codec.encode(values, 1 if scalar else n)
        if not scalar and bits.size != n:
            raise DimensionMismatch(
                f"values length {bits.size} does not match index length {n}"
            )
        if self.spec is None:
            ftype, columns = F_DATA_COO, (r, c)
        else:
            if keys is None:
                keys = coords.pack(r, c, self.spec)
            if bool(np.all(bits == self._one)):
                return F_DATA_KEYONLY, keys.tobytes()
            ftype, columns = F_DATA, (keys,)
        if scalar:
            bits = np.full(n, bits[0])
        return ftype, b"".join(col.tobytes() for col in (*columns, bits))

    @staticmethod
    def count(ftype: int, payload) -> int:
        """Updates in one data frame; ValueError unless it is whole records."""
        width = 8 * _COLUMNS[ftype]
        if len(payload) % width:
            raise ValueError(
                f"{len(payload)}-byte frame of type {ftype} is not a whole "
                f"number of {width}-byte records"
            )
        return len(payload) // width

    def decode(self, ftype: int, payload):
        """Invert :meth:`encode`, with arrays that are views of ``payload``.

        Raises ValueError for a payload that is not a whole number of
        records, and for a keyed frame under a shape with no 64-bit split.
        """
        n = self.count(ftype, payload)
        if ftype != F_DATA_COO and self.spec is None:
            raise ValueError(
                f"keyed frame for the {self.nrows}x{self.ncols} shape, "
                "which has no 64-bit key split"
            )
        columns = [
            np.frombuffer(payload, dtype=np.uint64, count=n, offset=8 * n * i)
            for i in range(_COLUMNS[ftype])
        ]
        if ftype == F_DATA_KEYONLY:
            # Every value's bit pattern was scalar 1 in this dtype; the
            # scalar fill of update_packed() stores the identical bits.
            return columns[0], 1
        return (*columns[:-1], self.value_codec.decode(columns[-1]))


def frame(ftype: int, payload) -> bytes:
    """One length-prefixed frame: header and payload."""
    return HEADER.pack(ftype, len(payload)) + bytes(payload)


def pickled_frame(ftype: int, obj) -> bytes:
    """One frame whose payload is the pickled ``obj``."""
    return frame(ftype, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def load_pickled(payload):
    """The object a pickled frame's payload carries."""
    return pickle.loads(bytes(payload))


def send_frame(sock: socket.socket, ftype: int, payload) -> None:
    """Write one frame (header and payload in one send)."""
    sock.sendall(frame(ftype, payload))


def send_pickled(sock: socket.socket, ftype: int, obj) -> None:
    """Write one frame whose payload is the pickled ``obj``."""
    sock.sendall(pickled_frame(ftype, obj))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytearray]:
    """Read exactly ``n`` bytes into a *writable* buffer (ingest arrays
    built on it need no second copy), or None on EOF — at a frame boundary
    or mid-frame, since a peer that died mid-send left the stream unusable."""
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
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    ftype, length = HEADER.unpack(bytes(header))
    payload = _recv_exact(sock, int(length))
    if payload is None:
        return None
    return int(ftype), payload
