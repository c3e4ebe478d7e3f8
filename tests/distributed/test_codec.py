"""Wire codec tests: frames, value bits, and batches <-> data frames.

:mod:`repro.distributed.codec` is the one module that knows the wire
format.  These tests pin the length-prefixed frame I/O (split across small
kernel buffers, backpressured, randomized), the bit-exact
:class:`~repro.distributed.codec.ValueCodec`, and a hypothesis battery over
:class:`~repro.distributed.codec.BatchCodec`: for every GraphBLAS value
type, on packable and unpackable shapes, with scalar, all-ones and array
values and with or without the router's keys, applying
``decode(*encode(batch))`` to a :class:`~repro.core.HierarchicalMatrix` is
bit-identical to ``update(batch)``, and every frame type refuses payloads
that are not a whole number of records.
"""

from __future__ import annotations

import contextlib
import pickle
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HierarchicalMatrix
from repro.distributed.codec import (
    F_CONTROL,
    F_DATA,
    F_DATA_COO,
    F_DATA_KEYONLY,
    F_HELLO_ACK,
    F_REPLY,
    BatchCodec,
    ValueCodec,
    recv_frame,
    send_frame,
    send_pickled,
)
from repro.graphblas import coords
from repro.graphblas.errors import DimensionMismatch, InvalidIndex
from repro.graphblas.types import BUILTIN_TYPES, lookup_dtype

from .conftest import deadline

CUTS = [50, 500]

@contextlib.contextmanager
def socket_pair(buffer_bytes=None):
    """A connected ``socketpair``, closed on exit.  ``buffer_bytes`` shrinks
    the kernel buffers so modest frames span many partial sends and receives."""
    a, b = socket.socketpair()
    try:
        for end in (a, b) if buffer_bytes else ():
            for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
                end.setsockopt(socket.SOL_SOCKET, opt, buffer_bytes)
        yield a, b
    finally:
        a.close()
        b.close()


class TestFraming:
    def test_frame_round_trip(self):
        with socket_pair() as (a, b):
            send_frame(a, F_DATA, b"\x01\x02\x03")
            send_pickled(a, F_CONTROL, ("stats", None))
            assert recv_frame(b) == (F_DATA, bytearray(b"\x01\x02\x03"))
            ftype, payload = recv_frame(b)
            assert ftype == F_CONTROL
            assert pickle.loads(bytes(payload)) == ("stats", None)

    def test_empty_payload_frame(self):
        with socket_pair() as (a, b):
            send_frame(a, F_HELLO_ACK, b"")
            assert recv_frame(b) == (F_HELLO_ACK, bytearray(b""))

    def test_eof_at_boundary_returns_none(self):
        with socket_pair() as (a, b):
            a.close()
            assert recv_frame(b) is None

    def test_eof_mid_frame_returns_none(self):
        import struct

        with socket_pair() as (a, b):
            # Header promises 100 payload bytes; only 10 arrive before EOF.
            a.sendall(struct.pack("<BQ", F_DATA, 100) + b"x" * 10)
            a.close()
            assert recv_frame(b) is None

    def test_payload_is_a_writable_buffer(self):
        """Ingest arrays are built on the received buffer without a copy."""
        keys = np.arange(8, dtype=np.uint64)
        with socket_pair() as (a, b):
            send_frame(a, F_DATA_KEYONLY, keys.tobytes())
            ftype, payload = recv_frame(b)
        view = np.frombuffer(payload, dtype=np.uint64)
        assert ftype == F_DATA_KEYONLY and view.flags.writeable
        assert np.array_equal(view, keys)

    def test_frame_larger_than_the_socket_buffers_crosses_intact(self):
        """A frame many times the kernel buffers arrives whole, in order."""
        big = np.arange(1 << 17, dtype=np.uint64).tobytes()  # 1 MiB
        received = []
        with socket_pair(4096) as (a, b):
            reader = threading.Thread(target=lambda: received.append(recv_frame(b)))
            reader.start()
            with deadline(30):
                send_frame(a, F_DATA_KEYONLY, big)
                send_frame(a, F_REPLY, b"after")
            reader.join(timeout=30)
            assert received == [(F_DATA_KEYONLY, bytearray(big))]
            assert recv_frame(b) == (F_REPLY, bytearray(b"after"))

    def test_full_buffers_block_the_sender_until_the_reader_drains(self):
        """Backpressure: with nobody reading, a send larger than the buffers
        cannot finish; it completes once the reader drains."""
        payload = b"\x07" * (1 << 20)
        done = threading.Event()
        with socket_pair(4096) as (a, b):
            sender = threading.Thread(
                target=lambda: (send_frame(a, F_DATA_KEYONLY, payload), done.set())
            )
            sender.start()
            assert not done.wait(0.1), "send must block while the buffers are full"
            with deadline(30):
                assert recv_frame(b) == (F_DATA_KEYONLY, bytearray(payload))
            sender.join(timeout=30)
            assert done.is_set()

    def test_send_to_a_closed_peer_raises(self):
        """A gone reader is an error at the sender, never a hang."""
        with socket_pair() as (a, b):
            b.close()
            with pytest.raises(OSError):
                send_frame(a, F_DATA_KEYONLY, b"\x00" * 64)

    @settings(max_examples=30, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.sampled_from([F_DATA, F_DATA_KEYONLY, F_CONTROL, F_REPLY]),
                st.integers(min_value=0, max_value=40_000),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_randomized_frame_stream_preserves_fifo_and_content(self, frames):
        """Any mix of frame types and sizes — many straddling the small
        kernel buffers — is read back frame for frame, byte for byte."""
        sent = [
            (ftype, np.random.default_rng(i).bytes(size))
            for i, (ftype, size) in enumerate(frames)
        ]
        received = []
        with socket_pair(4096) as (a, b):
            reader = threading.Thread(
                target=lambda: received.extend(recv_frame(b) for _ in sent)
            )
            reader.start()
            for ftype, payload in sent:
                send_frame(a, ftype, payload)
            reader.join(timeout=30)
            assert not reader.is_alive()
        assert received == [(f, bytearray(p)) for f, p in sent]


class TestValueCodec:
    @pytest.mark.parametrize(
        "np_type",
        [np.float64, np.float32, np.int64, np.uint64, np.int32, np.uint8, np.bool_],
    )
    def test_roundtrip_is_bit_exact(self, np_type):
        codec = ValueCodec(np_type)
        rng = np.random.default_rng(3)
        if np.dtype(np_type) == np.bool_:
            values = rng.integers(0, 2, 64).astype(np.bool_)
        elif np.issubdtype(np_type, np.integer):
            info = np.iinfo(np_type)
            values = rng.integers(info.min, info.max, 64, dtype=np.int64 if info.min < 0 else np.uint64).astype(np_type)
        else:
            values = rng.normal(scale=1e6, size=64).astype(np_type)
        decoded = codec.decode(codec.encode(values, values.size))
        assert decoded.dtype == np.dtype(np_type)
        assert np.array_equal(decoded, values)

    def test_float64_bit_patterns_survive(self):
        codec = ValueCodec(np.float64)
        tricky = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 2 ** -1074, 1e308])
        decoded = codec.decode(codec.encode(tricky, tricky.size))
        assert np.array_equal(
            decoded.view(np.uint64), tricky.view(np.uint64)
        ), "NaN payloads and signed zeros must cross bit-exactly"

    def test_float32_signalling_nan_not_quieted(self):
        """Narrow floats cross as raw bytes: widening through float64 would
        set the quiet bit on a signalling NaN and break bit-identity with
        in-process ingest."""
        codec = ValueCodec(np.float32)
        patterns = np.array(
            [0x7F800001, 0xFF800001, 0x7FC00000, 0x80000000], dtype=np.uint32
        )  # sNaN, -sNaN, qNaN, -0.0
        tricky = patterns.view(np.float32)
        decoded = codec.decode(codec.encode(tricky, tricky.size))
        assert np.array_equal(decoded.view(np.uint32), patterns)

    def test_scalar_broadcast_matches_update_semantics(self):
        codec = ValueCodec(np.float32)
        decoded = codec.decode(codec.encode(1.5, 4))
        assert np.array_equal(decoded, np.full(4, 1.5, dtype=np.float32))

    def test_wide_types_rejected(self):
        with pytest.raises(ValueError):
            ValueCodec(np.complex128)


#: Shapes of the battery: the IPv4 split, a packable shape that is not a
#: power of two, and the full IPv6 shape with no 64-bit split.
SHAPES = [(2 ** 32, 2 ** 32), (5_000, 70_000), (2 ** 64, 2 ** 64)]

DTYPES = [t.name for t in BUILTIN_TYPES]


def typed_values(rng, np_type, n):
    """Random values of ``np_type``: the full range for integers, exactly
    summable halves for floats (so accumulation order cannot matter)."""
    if np_type == np.bool_:
        return rng.integers(0, 2, n).astype(np.bool_)
    if np.issubdtype(np_type, np.integer):
        info = np.iinfo(np_type)
        return rng.integers(info.min, info.max, n, dtype=np_type, endpoint=True)
    return (rng.integers(-64, 64, n) * 0.5).astype(np_type)


def make_values(rng, np_type, n, kind):
    if kind == "array":
        return typed_values(rng, np_type, n)
    if kind == "ones":
        return np.ones(n, dtype=np_type)
    if kind == "one":
        return 1
    return typed_values(rng, np_type, 1)[0]  # a typed scalar


def apply_frame(matrix, codec, ftype, payload):
    batch = codec.decode(ftype, payload)
    if len(batch) == 2:
        matrix.update_packed(*batch)
    else:
        matrix.update(*batch)


def assert_bit_identical(got, expected):
    g_rows, g_cols, g_vals = got.materialize().extract_tuples()
    e_rows, e_cols, e_vals = expected.materialize().extract_tuples()
    np.testing.assert_array_equal(g_rows, e_rows)
    np.testing.assert_array_equal(g_cols, e_cols)
    assert g_vals.dtype == e_vals.dtype
    assert g_vals.tobytes() == e_vals.tobytes()


class TestBatchCodec:
    @settings(max_examples=80, deadline=None)
    @given(
        dtype=st.sampled_from(DTYPES),
        shape=st.sampled_from(SHAPES),
        kinds=st.lists(
            st.sampled_from(["array", "ones", "one", "scalar"]), min_size=1, max_size=3
        ),
        with_keys=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_decode_of_encode_applies_bit_identically(
        self, dtype, shape, kinds, with_keys, seed
    ):
        nrows, ncols = shape
        np_type = lookup_dtype(dtype).np_type
        codec = BatchCodec(nrows, ncols, dtype)
        rng = np.random.default_rng(seed)
        expected = HierarchicalMatrix(nrows, ncols, dtype, cuts=CUTS)
        got = HierarchicalMatrix(nrows, ncols, dtype, cuts=CUTS)
        for kind in kinds:
            n = int(rng.integers(1, 120))
            # Few distinct coordinates, so batches repeat them, and the
            # shape's last row and column are always in play.
            rows = rng.integers(0, 40, n, dtype=np.uint64) + np.uint64(nrows - 40)
            cols = rng.integers(0, 40, n, dtype=np.uint64) + np.uint64(ncols - 40)
            values = make_values(rng, np_type, n, kind)
            keys = None
            if with_keys and codec.spec is not None:
                keys = coords.pack(rows, cols, codec.spec)
            ftype, payload = codec.encode(rows, cols, values, keys)
            if codec.spec is None:
                assert ftype == F_DATA_COO
            elif kind in ("ones", "one"):
                assert ftype == F_DATA_KEYONLY
            assert codec.count(ftype, payload) == n
            apply_frame(got, codec, ftype, payload)
            expected.update(rows, cols, values)
        assert_bit_identical(got, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        kind=st.sampled_from(["array", "one"]),
        n=st.integers(1, 20),
        cut=st.integers(1, 23),
        extend=st.booleans(),
    )
    def test_misaligned_payloads_are_rejected(self, shape, kind, n, cut, extend):
        """Truncated or padded payloads that are not whole records raise."""
        codec = BatchCodec(*shape)
        rows = np.arange(n, dtype=np.uint64)
        values = np.arange(n, dtype=np.float64) + 2.0 if kind == "array" else 1
        ftype, payload = codec.encode(rows, rows, values)
        width = {F_DATA_KEYONLY: 8, F_DATA: 16, F_DATA_COO: 24}[ftype]
        if cut % width == 0:
            cut += 1
        bad = payload + b"\x00" * cut if extend else payload[: len(payload) - cut]
        if len(bad) % width == 0:  # a truncation down to whole records
            return
        with pytest.raises(ValueError):
            codec.decode(ftype, bad)
        with pytest.raises(ValueError):
            BatchCodec.count(ftype, bad)

    @pytest.mark.parametrize("ftype", [F_DATA, F_DATA_KEYONLY])
    def test_keyed_frames_need_a_key_split(self, ftype):
        codec = BatchCodec(2 ** 64, 2 ** 64)
        with pytest.raises(ValueError, match="no 64-bit key split"):
            codec.decode(ftype, np.arange(4, dtype=np.uint64).tobytes())

    def test_coo_frames_decode_under_any_shape(self):
        """A COO frame is plain columns; range checks are the consumer's."""
        codec = BatchCodec(2 ** 32, 2 ** 32)
        bits = np.array([2.5]).view(np.uint64)
        payload = np.concatenate([np.array([2 ** 40, 7], np.uint64), bits]).tobytes()
        rows, cols, values = codec.decode(F_DATA_COO, payload)
        assert (rows.tolist(), cols.tolist(), values.tolist()) == ([2 ** 40], [7], [2.5])

    def test_received_buffers_decode_to_writable_arrays(self):
        codec = BatchCodec(2 ** 32, 2 ** 32)
        ftype, payload = codec.encode([1, 2], [3, 4], [5.0, 6.0])
        keys, values = codec.decode(ftype, bytearray(payload))
        assert keys.flags.writeable and values.flags.writeable

    def test_empty_batch_encodes_to_nothing(self):
        codec = BatchCodec(2 ** 32, 2 ** 32)
        assert codec.encode([], [], []) is None
        assert codec.encode([], [], 1, keys=np.empty(0, np.uint64)) is None

    def test_encode_validates_the_batch(self):
        codec = BatchCodec(1_000, 1_000)
        with pytest.raises(InvalidIndex):
            codec.encode([1_000], [0], 1.0)
        with pytest.raises(DimensionMismatch):
            codec.encode([1, 2], [3], 1.0)
        with pytest.raises(DimensionMismatch):
            codec.encode([1, 2], [3, 4], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidIndex):
            BatchCodec(2 ** 33, 2 ** 33).encode([2 ** 33], [0], 1.0)
