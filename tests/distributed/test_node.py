"""Node-agent unit tests: addresses, wire framing, handshake, worker handles.

The conformance and fault batteries already exercise the socket transport
end-to-end through :class:`~repro.distributed.ShardedHierarchicalMatrix`;
these tests pin the layers *underneath* — the ``host:port`` address helpers,
the length-prefixed frame codec (split across small kernel buffers,
backpressured, randomized), the worker frame loop driven frame by frame in a
thread, the agent's HELLO handshake as seen by a raw
client socket, the pid-based :class:`~repro.distributed.RemoteWorkerHandle`
surface the fault suite relies on, and the transport ``respawn`` contract
that replica resync depends on (a replacement worker must get *fresh*
channels, never the dead worker's half-read ones).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HierarchicalMatrix
from repro.distributed import ShardWorkerPool, WorkerCrash
from repro.distributed.node import (
    F_CONTROL,
    F_DATA,
    F_DATA_KEYONLY,
    F_DATA_PICKLED,
    F_HELLO,
    F_HELLO_ACK,
    F_REPLY,
    NodeAgent,
    RemoteWorkerHandle,
    ValueCodec,
    _serve_connection,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
    send_pickled,
    spawn_local_agents,
)
from repro.distributed.partition import partition_keyspace
from repro.distributed.worker import ShardState
from repro.graphblas import coords

from .conftest import PROCESS_MODES, deadline, mode_kwargs

CUTS = [300, 3_000]


class TestAddresses:
    def test_parse_string(self):
        assert parse_address("10.0.0.7:9100") == ("10.0.0.7", 9100)

    def test_parse_pair_normalises_types(self):
        assert parse_address(("localhost", np.int64(80))) == ("localhost", 80)

    def test_parse_keeps_colons_in_host(self):
        # rpartition: only the *last* colon separates the port.
        assert parse_address("::1:9000") == ("::1", 9000)

    @pytest.mark.parametrize("bad", ["nohost", "host:", ":123", "host:port"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_format_round_trips(self):
        assert format_address(("127.0.0.1", 6000)) == "127.0.0.1:6000"
        assert parse_address(format_address("a:1")) == ("a", 1)


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


class TestWorkerLoop:
    """:func:`_serve_connection` driven in a thread over a ``socketpair``.

    This is the loop every process-backed worker runs; here the test plays
    the router frame by frame, so decoding, ordering, error latching and
    shutdown are pinned without any process in the way.
    """

    @staticmethod
    @contextlib.contextmanager
    def serving(matrix_kwargs=None):
        router, worker = socket.socketpair()
        kwargs = {"cuts": CUTS, **(matrix_kwargs or {})}
        loop = threading.Thread(
            target=_serve_connection, args=(worker, 0, kwargs), daemon=True
        )
        loop.start()
        try:
            yield router, loop
        finally:
            router.close()
            loop.join(timeout=10)

    @staticmethod
    def request(router, cmd, payload=None):
        send_pickled(router, F_CONTROL, (cmd, payload))
        with deadline(30):
            ftype, reply = recv_frame(router)
        assert ftype == F_REPLY
        return pickle.loads(bytes(reply))

    def test_data_frame_applies_the_decoded_values(self):
        spec = coords.shape_split(2 ** 32, 2 ** 32)
        rows = np.arange(16, dtype=np.uint64)
        vals = np.linspace(-2.0, 5.0, 16)
        keys = coords.pack(rows, rows + 3, spec)
        bits = ValueCodec(np.float64).encode(vals, 16)
        with self.serving() as (router, _):
            send_frame(router, F_DATA, keys.tobytes() + bits.tobytes())
            assert self.request(router, "get", (5, 8)) == ("ok", vals[5])
            assert self.request(router, "stats")[1]["total"] == pytest.approx(vals.sum())

    def test_narrow_value_bits_decode_in_the_shard_type(self):
        spec = coords.shape_split(2 ** 32, 2 ** 32)
        rows = np.arange(4, dtype=np.uint64)
        vals = np.array([-3, 127, -128, 9], dtype=np.int8)
        keys = coords.pack(rows, rows, spec)
        bits = ValueCodec(np.int8).encode(vals, 4)
        with self.serving({"dtype": "int8"}) as (router, _):
            send_frame(router, F_DATA, keys.tobytes() + bits.tobytes())
            status, (got_rows, _, got_vals) = self.request(router, "materialize")
            assert status == "ok"
            assert got_vals.dtype == np.int8
            assert np.array_equal(got_vals[np.argsort(got_rows)], vals)

    def test_key_only_frame_applies_ones(self):
        spec = coords.shape_split(2 ** 32, 2 ** 32)
        rows = np.arange(10, dtype=np.uint64)
        with self.serving() as (router, _):
            send_frame(router, F_DATA_KEYONLY, coords.pack(rows, rows, spec).tobytes())
            send_frame(router, F_DATA_KEYONLY, coords.pack(rows, rows, spec).tobytes())
            assert self.request(router, "get", (7, 7)) == ("ok", 2.0)
            assert self.request(router, "stats")[1]["updates"] == 20

    def test_pickled_frame_carries_unpackable_shapes(self):
        rows = np.array([2 ** 63 + 5, 2 ** 40], dtype=np.uint64)
        cols = np.array([2 ** 62, 2 ** 64 - 1], dtype=np.uint64)
        with self.serving({"nrows": 2 ** 64, "ncols": 2 ** 64}) as (router, _):
            send_pickled(router, F_DATA_PICKLED, (rows, cols, np.array([1.5, 2.5])))
            assert self.request(router, "get", (2 ** 63 + 5, 2 ** 62)) == ("ok", 1.5)
            assert self.request(router, "get", (2 ** 40, 2 ** 64 - 1)) == ("ok", 2.5)

    def test_replies_follow_frame_order(self):
        """Every control is a barrier for exactly the ingest frames before
        it: replies read after the whole burst still see running counts."""
        spec = coords.shape_split(2 ** 32, 2 ** 32)
        with self.serving() as (router, _):
            for b in range(5):
                rows = np.arange(b * 10, b * 10 + 10, dtype=np.uint64)
                send_frame(router, F_DATA_KEYONLY, coords.pack(rows, rows, spec).tobytes())
                send_pickled(router, F_CONTROL, ("stats", None))
            counts = []
            with deadline(30):
                for _ in range(5):
                    ftype, reply = recv_frame(router)
                    assert ftype == F_REPLY
                    counts.append(pickle.loads(bytes(reply))[1]["updates"])
            assert counts == [10, 20, 30, 40, 50]

    def test_ingest_error_is_latched_until_the_next_reply(self):
        """A batch that fails to decode is reported by the next reply-bearing
        command; the loop keeps serving and later batches apply."""
        spec = coords.shape_split(2 ** 32, 2 ** 32)
        rows = np.arange(3, dtype=np.uint64)
        with self.serving() as (router, _):
            send_frame(router, F_DATA_PICKLED, b"not a pickle")
            status, trace = self.request(router, "stats")
            assert status == "error" and "pickle" in trace.lower()
            send_frame(router, F_DATA_KEYONLY, coords.pack(rows, rows, spec).tobytes())
            assert self.request(router, "stats")[1]["updates"] == 3

    def test_unknown_frame_types_are_ignored(self):
        with self.serving() as (router, _):
            send_frame(router, 200, b"from a newer router")
            status, stats = self.request(router, "stats")
            assert status == "ok" and stats["updates"] == 0

    def test_stop_ends_the_loop_and_closes_the_connection(self):
        with self.serving() as (router, loop):
            send_pickled(router, F_CONTROL, ("stop", None))
            with deadline(30):
                assert recv_frame(router) is None
            loop.join(timeout=10)
            assert not loop.is_alive()

    def test_eof_ends_the_loop(self):
        with self.serving() as (router, loop):
            router.shutdown(socket.SHUT_WR)
            loop.join(timeout=10)
            assert not loop.is_alive()


class TestNodeAgent:
    def test_binds_before_serving(self):
        agent = NodeAgent()
        try:
            host, port = agent.address
            assert host == "127.0.0.1" and port > 0
        finally:
            agent.close()

    def test_two_agents_get_distinct_ports(self):
        a, b = NodeAgent(), NodeAgent()
        try:
            assert a.port != b.port
        finally:
            a.close()
            b.close()

    def _connect(self, address):
        conn = socket.create_connection(address, timeout=10)
        conn.settimeout(10)
        return conn

    def test_hello_handshake_and_packed_ingest(self):
        """A raw client speaks the documented wire: HELLO -> ACK -> DATA ->
        CONTROL, with the control reply observing every prior ingest frame."""
        with spawn_local_agents(1) as (addresses, _procs):
            conn = self._connect(addresses[0])
            try:
                send_pickled(
                    conn, F_HELLO, {"slot": 0, "matrix_kwargs": {"cuts": CUTS}}
                )
                ftype, payload = recv_frame(conn)
                assert ftype == F_HELLO_ACK
                pid = pickle.loads(bytes(payload))["pid"]
                assert pid > 0 and RemoteWorkerHandle(pid).is_alive()

                n = 64
                rows = np.arange(n, dtype=np.uint64)
                cols = rows + 7
                vals = np.linspace(1.0, 4.0, n)
                spec = coords.shape_split(2 ** 32, 2 ** 32)
                keys = coords.pack(rows, cols, spec)
                bits = ValueCodec(np.dtype(np.float64)).encode(vals, n)
                send_frame(conn, F_DATA, keys.tobytes() + bits.tobytes())
                send_pickled(conn, F_CONTROL, ("stats", None))
                with deadline(30):
                    ftype, payload = recv_frame(conn)
                assert ftype == F_REPLY
                status, stats = pickle.loads(bytes(payload))
                assert status == "ok"
                assert stats["updates"] == n
                assert stats["total"] == pytest.approx(vals.sum())

                # "stop" ends the worker loop: the connection reaches EOF.
                send_pickled(conn, F_CONTROL, ("stop", None))
                with deadline(30):
                    assert recv_frame(conn) is None
                RemoteWorkerHandle(pid).join(timeout=10)
                assert not RemoteWorkerHandle(pid).is_alive()
            finally:
                conn.close()

    def test_non_hello_first_frame_is_dropped(self):
        with spawn_local_agents(1) as (addresses, _procs):
            conn = self._connect(addresses[0])
            try:
                send_pickled(conn, F_CONTROL, ("stats", None))
                with deadline(30):
                    assert recv_frame(conn) is None
            finally:
                conn.close()


class TestRemoteWorkerHandle:
    def _spawned_worker_pid(self, address):
        conn = socket.create_connection(address, timeout=10)
        conn.settimeout(10)
        send_pickled(conn, F_HELLO, {"slot": 0, "matrix_kwargs": {"cuts": CUTS}})
        ftype, payload = recv_frame(conn)
        assert ftype == F_HELLO_ACK
        return conn, pickle.loads(bytes(payload))["pid"]

    def test_kill_is_observable(self):
        with spawn_local_agents(1) as (addresses, _procs):
            conn, pid = self._spawned_worker_pid(addresses[0])
            try:
                handle = RemoteWorkerHandle(pid)
                assert handle.is_alive()
                assert handle.exitcode is None
                handle.kill()
                handle.join(timeout=10)
                assert not handle.is_alive()
                assert handle.exitcode == -signal.SIGKILL
                # kill() on an already-dead pid must not raise.
                handle.kill()
                handle.terminate()
            finally:
                conn.close()

    def test_dead_pid_reads_dead(self):
        # Fork a child that exits immediately and reap it: its pid is gone.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        assert not RemoteWorkerHandle(pid).is_alive()


class TestRespawnReplacesChannels:
    """Respawn after SIGKILL must hand the replacement *fresh* channels.

    A worker killed mid-read can leave a partial frame in its old connection
    (which would hang the replacement's first read) and commands the dead
    worker never consumed would produce replies nobody is waiting for.
    This pins the contract replica resync depends on: after ``respawn`` the
    slot serves requests from a clean, empty state.
    """

    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_slot_usable_after_respawn(self, mode):
        with ShardWorkerPool(1, matrix_kwargs={"cuts": CUTS}, **mode_kwargs(mode)) as pool:
            rows = np.arange(200, dtype=np.uint64)
            pool.submit(0, "ingest", (rows, rows + 1, np.ones(200)))
            # Kill while a long command is mid-flight so the death lands
            # with the wire in the dirtiest reachable state.
            pool.submit(
                0, "selfgen", {"total_updates": 500_000, "batch_size": 10_000, "seed": 3}
            )
            pool.processes[0].kill()
            pool.processes[0].join(timeout=10)
            with deadline(30):
                with pytest.raises(WorkerCrash):
                    pool.collect(0)
            pool._transport.respawn(0)
            with deadline(30):
                stats = pool.request(0, "stats")
            assert stats["updates"] == 0
            # And the slot streams normally again.
            pool.submit(0, "ingest", (rows, rows + 1, np.ones(200)))
            with deadline(30):
                assert pool.request(0, "stats")["updates"] == 200


class TestMaterializeFreeSlabExtraction:
    """``extract_slab`` must never materialise the shard (PR-7 satellite).

    The slab is gathered per layer and combined at slab size; a full
    multi-layer merge of the shard would make every migration cost O(shard)
    regardless of slab size.  Patching ``materialize`` to raise proves the
    fast path is the only path.
    """

    def test_extract_slab_never_materialises(self, monkeypatch):
        state = ShardState(0, {"cuts": CUTS})
        rng = np.random.default_rng(7)
        for _ in range(4):
            rows = rng.integers(0, 2 ** 20, 500, dtype=np.uint64)
            cols = rng.integers(0, 2 ** 20, 500, dtype=np.uint64)
            state.handle("ingest", (rows, cols, np.ones(500)))
        ref_rows, ref_cols, ref_vals = state.matrix.materialize().extract_tuples()
        keyspace = partition_keyspace("hash", state.spec, state.matrix.nrows)

        def _boom(self):
            raise AssertionError("extract_slab materialised the shard")

        monkeypatch.setattr(HierarchicalMatrix, "materialize", _boom)
        result = state.handle(
            "extract_slab", {"partition": "hash", "lo": 0, "hi": keyspace}
        )
        assert result["count"] == ref_rows.size
        form, keys, bits = result["slab"]
        assert form == "packed"
        rows, cols = coords.unpack(keys, state.spec)
        vals = ValueCodec(np.float64).decode(bits)
        order = np.lexsort((cols, rows))
        ref_order = np.lexsort((ref_cols, ref_rows))
        np.testing.assert_array_equal(rows[order], ref_rows[ref_order])
        np.testing.assert_array_equal(cols[order], ref_cols[ref_order])
        np.testing.assert_array_equal(vals[order], ref_vals[ref_order])

        # The target-driven cut (coordinator asks the worker to choose the
        # interval) takes the same materialise-free path.
        chosen = state.handle(
            "extract_slab",
            {
                "partition": "hash",
                "intervals": [(0, keyspace)],
                "target": ref_rows.size // 4,
            },
        )
        assert 0 < chosen["count"] <= ref_rows.size
