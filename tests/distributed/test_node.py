"""Node-agent unit tests: addresses, worker loop, handshake, worker handles.

The conformance and fault batteries already exercise the socket transport
end-to-end through :class:`~repro.distributed.ShardedHierarchicalMatrix`;
these tests pin the layers *underneath* — the ``host:port`` address helpers,
the worker frame loop driven frame by frame in a thread, the agent's HELLO
handshake as seen by a raw client socket, the pid-based
:class:`~repro.distributed.RemoteWorkerHandle` surface the fault suite
relies on, and the transport ``respawn`` contract that replica resync
depends on (a replacement worker must get *fresh* channels, never the dead
worker's half-read ones).  The frame codec itself is tested in
``test_codec.py``.
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

from repro.core import HierarchicalMatrix
from repro.distributed import ShardWorkerPool, WorkerCrash
from repro.distributed.codec import (
    F_CONTROL,
    F_DATA,
    F_DATA_COO,
    F_DATA_KEYONLY,
    F_HELLO,
    F_HELLO_ACK,
    F_REPLY,
    ValueCodec,
    recv_frame,
    send_frame,
    send_pickled,
)
from repro.distributed.node import (
    NodeAgent,
    RemoteWorkerHandle,
    _serve_connection,
    format_address,
    parse_address,
    spawn_local_agents,
)
from repro.distributed.partition import (
    interval_mask,
    partition_keys,
    partition_keyspace,
)
from repro.distributed.worker import ShardState
from repro.graphblas import Matrix, coords

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

    def test_coo_frame_carries_unpackable_shapes(self):
        rows = np.array([2 ** 63 + 5, 2 ** 40], dtype=np.uint64)
        cols = np.array([2 ** 62, 2 ** 64 - 1], dtype=np.uint64)
        bits = ValueCodec(np.float64).encode(np.array([1.5, 2.5]), 2)
        with self.serving({"nrows": 2 ** 64, "ncols": 2 ** 64}) as (router, _):
            send_frame(router, F_DATA_COO, rows.tobytes() + cols.tobytes() + bits.tobytes())
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
            send_frame(router, F_DATA_COO, b"\x00" * 23)  # not whole records
            status, trace = self.request(router, "stats")
            assert status == "error" and "whole number" in trace.lower()
            send_frame(router, F_DATA_KEYONLY, coords.pack(rows, rows, spec).tobytes())
            assert self.request(router, "stats")[1]["updates"] == 3

    @pytest.mark.parametrize(
        "ftype, size",
        [(F_DATA, 19), (F_DATA_KEYONLY, 11), (F_DATA_COO, 29)],
        ids=["data", "keyonly", "coo"],
    )
    def test_misaligned_data_frames_are_latched_and_not_applied(self, ftype, size):
        """A frame whose length is not a whole number of records stores
        nothing: the error latches until the next reply."""
        spec = coords.shape_split(2 ** 32, 2 ** 32)
        record = np.concatenate(
            [coords.pack(np.array([1], np.uint64), np.array([2], np.uint64), spec),
             np.array([5.0]).view(np.uint64), np.array([5.0]).view(np.uint64)]
        ).tobytes()
        with self.serving() as (router, _):
            send_frame(router, ftype, (record * 2)[:size])
            status, trace = self.request(router, "get", (1, 2))
            assert status == "error" and "ValueError" in trace
            assert self.request(router, "get", (1, 2)) == ("ok", None)
            assert self.request(router, "stats")[1]["updates"] == 0

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
            # Stop the worker, queue a command behind it, then kill it: the
            # death lands with an unread command on the wire, whatever the
            # timing.
            os.kill(pool.processes[0].pid, signal.SIGSTOP)
            pool.submit(0, "report")
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


#: Shapes and value types the slab path must carry exactly: a 2^32 shape
#: (packed keys), a 2^64 shape (no 64-bit split, so ``DATA_COO`` frames) and
#: an integer dtype.
SLAB_CASES = [
    pytest.param(2 ** 32, "fp64", id="fp64-2^32"),
    pytest.param(2 ** 64, "fp64", id="fp64-2^64"),
    pytest.param(2 ** 32, "int64", id="int64-2^32"),
]


def _slab_batches(n, dtype, nbatches=40, size=120, seed=5, dyadic=False):
    """Batches spread over the whole ``n x n`` shape on a coarse grid, so
    coordinates repeat across batches and end up stored in several layers.

    ``dyadic`` fp64 values (multiples of 1/64) sum exactly in any order, so
    tracker vectors summed batch by batch can be compared bit for bit with
    ones rebuilt from combined values."""
    rng = np.random.default_rng(seed)
    step = np.uint64(n // 128)
    for _ in range(nbatches):
        rows = rng.integers(0, 128, size, dtype=np.uint64) * step
        cols = rng.integers(0, 128, size, dtype=np.uint64) * step + np.uint64(3)
        if dtype == "fp64":
            vals = rng.random(size)  # non-integral: combine order shows
            if dyadic:
                vals = np.round(vals * 64) / 64
        else:
            vals = rng.integers(-50, 50, size, dtype=np.int64)
        yield rows, cols, vals


def _boom(*args, **kwargs):
    raise AssertionError("the slab path materialised or compressed the shard")


def _assert_same_tracker(a, b):
    ia, ib = a.incremental, b.incremental
    assert ia.supported and ia.supported == ib.supported
    kinds = ["row_traffic", "col_traffic"]
    if ia.fan_supported:
        kinds += ["row_fan", "col_fan"]
        assert ia.nnz() == ib.nnz()
    for kind in kinds:
        assert getattr(ia, kind)().isequal(getattr(ib, kind)(), check_dtype=True), kind


class TestMaterializeFreeSlabExtraction:
    """No slab step ever materialises the shard: not ``extract_slab``, not
    ``discard_slab``, and not a replica resync, which copies the primary as
    one whole-key-space slab.  ``report()`` counts its
    entries from the tracker, too.

    Slabs are cut per layer and combined at slab size; a full multi-layer
    merge of the shard would make every migration cost O(shard) regardless
    of slab size.  Patching ``materialize`` to raise proves the fast path is
    the only path.
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
        ftype, payload = result["slab"]
        assert ftype in (F_DATA, F_DATA_KEYONLY)  # packed keys
        keys, vals = state.codec.decode(ftype, payload)
        rows, cols = coords.unpack(keys, state.spec)
        vals = np.broadcast_to(np.asarray(vals, dtype=np.float64), keys.shape)
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

    @pytest.mark.parametrize("n, dtype", SLAB_CASES)
    def test_discard_slab_never_materialises(self, n, dtype, monkeypatch):
        state = ShardState(0, {"nrows": n, "ncols": n, "dtype": dtype, "cuts": CUTS})
        for batch in _slab_batches(n, dtype):
            state.handle("ingest", batch)
        assert all(layer.nvals_upper_bound for layer in state.matrix.layers)
        rows, cols, vals = state.matrix.materialize().extract_tuples()
        keyspace = partition_keyspace("range", state.spec, n)
        lo, hi = keyspace // 4, keyspace // 2
        move = interval_mask(partition_keys(rows, cols, "range", state.spec), lo, hi)
        assert 0 < move.sum() < rows.size
        expected = Matrix(dtype, n, n)
        expected.build(rows[~move], cols[~move], vals[~move])

        monkeypatch.setattr(HierarchicalMatrix, "materialize", _boom)
        monkeypatch.setattr(HierarchicalMatrix, "to_coo", _boom)
        payload = {"partition": "range", "lo": lo, "hi": hi}
        assert state.handle("discard_slab", payload) is True
        # A second discard finds nothing left to drop.
        assert state.handle("discard_slab", payload) is False
        monkeypatch.undo()

        assert state.matrix.materialize().isequal(expected, check_dtype=True)
        reference = HierarchicalMatrix(n, n, dtype, cuts=CUTS)
        reference.update(*expected.extract_tuples())
        _assert_same_tracker(state.matrix, reference)

    @pytest.mark.parametrize("n, dtype", SLAB_CASES)
    def test_resync_never_materialises(self, n, dtype, monkeypatch):
        kwargs = {"nrows": n, "ncols": n, "dtype": dtype, "cuts": CUTS}
        with ShardWorkerPool(
            1, matrix_kwargs=kwargs, use_processes=False, replicas=1
        ) as pool:
            for batch in _slab_batches(n, dtype, dyadic=True):
                pool.submit(0, "ingest", batch)
            # Fail over to the replica; the old primary's slot is retired.
            assert pool.promote(0) == 1
            assert pool.missing_replicas(0) == 1
            states = [executor.state for executor in pool._transport.executors]
            source = states[1].matrix
            assert all(layer.nvals_upper_bound for layer in source.layers)

            monkeypatch.setattr(HierarchicalMatrix, "materialize", _boom)
            monkeypatch.setattr(HierarchicalMatrix, "to_coo", _boom)
            monkeypatch.setattr(np, "savez_compressed", _boom)
            assert pool.resync_replica(0) == 0
            monkeypatch.undo()

            assert pool.missing_replicas(0) == 0
            replica = pool._transport.executors[0].state.matrix
            assert replica is not states[0].matrix  # a fresh worker
            assert replica.materialize().isequal(source.materialize(), check_dtype=True)
            _assert_same_tracker(replica, source)
            # And the resynced slot mirrors the stream from here on.
            for batch in _slab_batches(n, dtype, nbatches=2, seed=9, dyadic=True):
                pool.submit(0, "ingest", batch)
            assert replica.materialize().isequal(source.materialize(), check_dtype=True)

    def test_failed_resync_leaves_the_slot_for_the_next(self, monkeypatch):
        original = ShardState.handle
        failures = []

        def failing_handle(self, cmd, payload):
            if cmd == "extract_slab" and not failures:
                failures.append(self.worker_id)
                raise RuntimeError("injected extract_slab failure")
            return original(self, cmd, payload)

        with ShardWorkerPool(
            1, matrix_kwargs={"cuts": CUTS}, use_processes=False, replicas=1
        ) as pool:
            for batch in _slab_batches(2 ** 32, "fp64"):
                pool.submit(0, "ingest", batch)
            assert pool.promote(0) == 1
            monkeypatch.setattr(ShardState, "handle", failing_handle)
            with pytest.raises(WorkerCrash, match="injected extract_slab"):
                pool.resync_replica(0)
            assert failures == [1]  # the primary's copy failed
            assert pool.missing_replicas(0) == 1
            assert pool.resync_replica(0) == 0
            assert pool.missing_replicas(0) == 0
            states = [executor.state.matrix for executor in pool._transport.executors]
            assert states[0].materialize().isequal(states[1].materialize(), check_dtype=True)

    def test_report_counts_without_materialising(self, monkeypatch):
        state = ShardState(0, {"cuts": CUTS})
        for batch in _slab_batches(2 ** 32, "fp64"):
            state.handle("ingest", batch)
        expected = state.matrix.materialize().nvals
        monkeypatch.setattr(HierarchicalMatrix, "materialize", _boom)
        assert state.report().final_nvals == expected
