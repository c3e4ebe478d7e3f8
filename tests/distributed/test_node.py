"""Node-agent unit tests: addresses, wire framing, handshake, worker handles.

The conformance and fault batteries already exercise the socket transport
end-to-end through :class:`~repro.distributed.ShardedHierarchicalMatrix`;
these tests pin the layers *underneath* — the ``host:port`` address helpers,
the length-prefixed frame codec, the agent's HELLO handshake as seen by a raw
client socket, the pid-based :class:`~repro.distributed.RemoteWorkerHandle`
surface the fault suite relies on, and the transport ``respawn`` contract
that replica resync depends on (a replacement worker must get *fresh*
channels, never the dead worker's half-read ones).
"""

from __future__ import annotations

import os
import pickle
import signal
import socket

import numpy as np
import pytest

from repro.core import HierarchicalMatrix
from repro.distributed import ShardWorkerPool, WorkerCrash, shm_supported
from repro.distributed.node import (
    F_CONTROL,
    F_DATA,
    F_HELLO,
    F_HELLO_ACK,
    F_REPLY,
    NodeAgent,
    RemoteWorkerHandle,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
    send_pickled,
    spawn_local_agents,
)
from repro.distributed.partition import partition_keyspace
from repro.distributed.ringbuf import ValueCodec
from repro.distributed.worker import ShardState
from repro.graphblas import coords

from .conftest import deadline

CUTS = [300, 3_000]

#: Transports whose respawn contract is testable on this host.
RESPAWN_TRANSPORTS = ["queue"] + (["shm"] if shm_supported(None) else [])


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


class TestFraming:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, F_DATA, b"\x01\x02\x03")
            send_pickled(a, F_CONTROL, ("stats", None))
            assert recv_frame(b) == (F_DATA, bytearray(b"\x01\x02\x03"))
            ftype, payload = recv_frame(b)
            assert ftype == F_CONTROL
            assert pickle.loads(bytes(payload)) == ("stats", None)
        finally:
            a.close()
            b.close()

    def test_empty_payload_frame(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, F_HELLO_ACK, b"")
            assert recv_frame(b) == (F_HELLO_ACK, bytearray(b""))
        finally:
            a.close()
            b.close()

    def test_eof_at_boundary_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_returns_none(self):
        a, b = socket.socketpair()
        try:
            # Header promises 100 payload bytes; only 10 arrive before EOF.
            import struct

            a.sendall(struct.pack("<BQ", F_DATA, 100) + b"x" * 10)
            a.close()
            assert recv_frame(b) is None
        finally:
            b.close()


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

    A worker killed mid-read can leave a partial message in its old task
    pipe (which would hang the replacement's first read) and commands the
    dead worker never consumed would produce replies nobody is waiting for.
    This pins the contract replica resync depends on: after ``respawn`` the
    slot serves requests from a clean, empty state.
    """

    @pytest.mark.parametrize("transport", RESPAWN_TRANSPORTS)
    def test_slot_usable_after_respawn(self, transport):
        with ShardWorkerPool(
            1, matrix_kwargs={"cuts": CUTS}, use_processes=True, transport=transport
        ) as pool:
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
