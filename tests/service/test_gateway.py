"""Gateway serving semantics + the auto-rebalancer policy, single process.

The fault battery and the multi-client soak live in ``tests/distributed``;
this file pins the service layer's own contracts with cheap in-process
matrices: the protocol surface (handshake, acks, snapshot reads, error
latching), admission control, backpressure accounting, shutdown draining,
and every branch of the :class:`AutoRebalancer` hysteresis machine driven by
an injected clock.
"""

from __future__ import annotations

import logging
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import HierarchicalMatrix
from repro.distributed import ShardedHierarchicalMatrix
from repro.distributed.codec import F_DATA, F_DATA_COO, F_DATA_KEYONLY
from repro.graphblas.errors import InvalidValue
from repro.graphblas.types import lookup_dtype
from repro.service import AutoRebalancer, GatewayClient, GatewayError, IngestGateway

CUTS = [200, 2_000]


# --------------------------------------------------------------------------- #
# AutoRebalancer policy (fake matrix, fake clock)
# --------------------------------------------------------------------------- #


class FakeBalanceMatrix:
    """Scripted imbalance readings + migration outcomes for policy tests."""

    def __init__(self, imbalances, migrations_available=0):
        self._imbalances = list(imbalances)
        self.migrations_available = migrations_available
        self.rebalance_calls = 0

    def imbalance(self, by="nnz"):
        if len(self._imbalances) > 1:
            return self._imbalances.pop(0)
        return self._imbalances[0]

    def rebalance(self, by="nnz", fraction=0.5, threshold=1.0):
        self.rebalance_calls += 1
        if self.migrations_available <= 0:
            return None
        self.migrations_available -= 1
        return SimpleNamespace(
            epoch=self.rebalance_calls, source=0, dest=1, moved=10,
            slab=(0, 100), imbalance_before=2.0,
        )


class TestAutoRebalancerPolicy:
    def test_below_trigger_never_migrates(self):
        matrix = FakeBalanceMatrix([1.2], migrations_available=5)
        policy = AutoRebalancer(matrix, trigger=1.5, interval=1.0, clock=lambda: 0.0)
        for now in range(10):
            policy.maybe_step(now=float(now))
        assert matrix.rebalance_calls == 0
        assert policy.events == []

    def test_trigger_migrates_down_to_settle(self):
        matrix = FakeBalanceMatrix([2.0], migrations_available=3)
        policy = AutoRebalancer(
            matrix, trigger=1.5, settle=1.1, interval=1.0, clock=lambda: 0.0
        )
        reports = policy.step(now=0.0)
        # Three migrations available, then the matrix reports settled (None).
        assert len(reports) == 3
        assert policy.events == reports

    def test_max_migrations_per_step_bounds_burst(self):
        matrix = FakeBalanceMatrix([2.0], migrations_available=100)
        policy = AutoRebalancer(
            matrix, trigger=1.5, interval=1.0, max_migrations_per_step=2,
            clock=lambda: 0.0,
        )
        assert len(policy.step(now=0.0)) == 2

    def test_cooldown_quiets_the_policy_after_migrating(self):
        matrix = FakeBalanceMatrix([2.0], migrations_available=1)
        policy = AutoRebalancer(
            matrix, trigger=1.5, interval=1.0, cooldown=5.0, clock=lambda: 0.0
        )
        assert len(policy.step(now=0.0)) == 1
        # Inside the cool-down window: no checks at all.
        checks = policy.checks
        for now in (1.0, 2.0, 4.9):
            assert policy.maybe_step(now=now) == []
        assert policy.checks == checks
        # After it expires the policy measures again.
        policy.maybe_step(now=5.0)
        assert policy.checks == checks + 1

    def test_fruitless_checks_back_off_exponentially(self):
        # Permanently skewed (one hot slab that cannot move): triggered
        # checks that migrate nothing must double the interval, capped.
        matrix = FakeBalanceMatrix([3.0], migrations_available=0)
        policy = AutoRebalancer(
            matrix, trigger=1.5, interval=1.0, max_backoff=4, clock=lambda: 0.0
        )
        gaps = []
        now = 0.0
        for _ in range(5):
            policy.step(now=now)
            gaps.append(policy._next_check - now)
            now = policy._next_check
        assert gaps == [2.0, 4.0, 4.0, 4.0, 4.0]  # doubles, then capped
        assert policy.fruitless_checks == 5
        # A successful migration re-arms the base cadence.
        matrix.migrations_available = 1
        policy.step(now=now)
        assert policy._backoff == 1

    def test_force_skips_the_trigger_gate(self):
        matrix = FakeBalanceMatrix([1.0], migrations_available=1)
        policy = AutoRebalancer(matrix, trigger=5.0, clock=lambda: 0.0)
        assert policy.step(now=0.0, force=False) == []
        assert len(policy.step(now=0.0, force=True)) == 1

    def test_parameter_validation(self):
        matrix = FakeBalanceMatrix([1.0])
        with pytest.raises(InvalidValue):
            AutoRebalancer(matrix, by="entropy")
        with pytest.raises(InvalidValue):
            AutoRebalancer(matrix, trigger=0.5)
        with pytest.raises(InvalidValue):
            AutoRebalancer(matrix, trigger=1.5, settle=2.0)
        # Default settle splits the band.
        assert AutoRebalancer(matrix, trigger=2.0).settle == 1.5

    def test_threaded_mode_routes_through_dispatch(self):
        matrix = FakeBalanceMatrix([2.0], migrations_available=1)
        policy = AutoRebalancer(matrix, trigger=1.5, interval=0.01)
        dispatched = threading.Event()

        def dispatch(fn):
            result = fn()
            dispatched.set()
            return result

        policy.start(dispatch=dispatch)
        try:
            assert dispatched.wait(timeout=10)
        finally:
            policy.stop()
        assert policy.last_error is None
        assert matrix.rebalance_calls >= 1
        policy.stop()  # idempotent


# --------------------------------------------------------------------------- #
# Gateway serving over real in-process matrices
# --------------------------------------------------------------------------- #


@pytest.fixture()
def gateway():
    matrix = ShardedHierarchicalMatrix(3, cuts=CUTS, partition="range")
    gw = IngestGateway(matrix, coalesce_updates=512, flush_interval=0.01)
    gw.start()
    yield gw
    gw.close()
    matrix.close()


def _client_batches(client_seed, nbatches=10, max_batch=200):
    rng = np.random.default_rng(client_seed)
    for _ in range(nbatches):
        n = int(rng.integers(1, max_batch))
        rows = rng.integers(0, 2 ** 20, n, dtype=np.uint64)
        cols = rng.integers(0, 2 ** 20, n, dtype=np.uint64)
        vals = rng.integers(1, 10, n).astype(np.float64)
        yield rows, cols, vals


class TestGatewayServing:
    def test_concurrent_clients_bit_identical_to_flat(self, gateway):
        """Two client threads; the served matrix equals a flat reference."""
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        lock = threading.Lock()
        failures = []

        def run(seed):
            try:
                with GatewayClient(gateway.address) as client:
                    sent = 0
                    for rows, cols, vals in _client_batches(seed):
                        client.update(rows, cols, vals)
                        sent += rows.size
                        with lock:
                            flat.update(rows, cols, vals)
                    ack = client.sync()
                    assert ack["acked"] == sent == client.sent_updates
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert failures == []
        assert gateway.matrix.materialize().isequal(flat.materialize())
        metrics = gateway.metrics()
        assert metrics["clients_total"] == 2
        assert metrics["routed_updates"] == metrics["received_updates"]

    def test_snapshot_reads_and_epoch_tags(self, gateway):
        with GatewayClient(gateway.address) as client:
            client.update([1, 2, 3], [4, 5, 6], [2.0, 3.0, 4.0])
            ack = client.sync()
            assert ack["acked"] == 3
            assert client.nnz() == 3
            assert client.get(1, 4) == 2.0
            assert client.get(7, 7) is None
            stats = client.stats()
            assert stats["nnz"] == 3.0 and stats["total_traffic"] == 9.0
            top = client.top(2)
            assert len(top["top_sources"]) <= 2
            assert client.epoch() == 0 and client.last_epoch == 0
            assert client.imbalance("nnz") >= 1.0
            assert len(client.shard_loads("traffic")) == 3
            assert client.pressure() == 0.0
            metrics = client.gateway_metrics()
            assert metrics["received_updates"] == 3
            assert client.rebalance_events() == []

    def test_reads_observe_own_writes_without_sync(self, gateway):
        """Snapshot reads flush the coalescer first (read-your-writes)."""
        with GatewayClient(gateway.address) as client:
            client.update([10], [20], [5.0])
            assert client.get(10, 20) == 5.0  # no sync in between

    def test_admission_refuses_beyond_max_clients(self):
        matrix = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        gw = IngestGateway(matrix, max_clients=1, flush_interval=0.01)
        gw.start()
        try:
            with GatewayClient(gw.address) as first:
                assert first.nnz() == 0
                with pytest.raises(GatewayError, match="too many clients"):
                    GatewayClient(gw.address)
            # Slots free up when clients disconnect.
            with GatewayClient(gw.address) as second:
                assert second.nnz() == 0
        finally:
            gw.close()

    def test_oversized_frame_refused_and_connection_closed(self):
        matrix = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        gw = IngestGateway(matrix, max_frame_bytes=1024, flush_interval=0.01)
        gw.start()
        try:
            client = GatewayClient(gw.address)
            n = 2048  # 16 bytes per update on the wire >> 1024-byte bound
            rows = np.arange(n, dtype=np.uint64)
            client.update(rows, rows, np.full(n, 2.0))
            with pytest.raises(GatewayError):
                client.sync()
            client.close()
            assert gw.metrics()["rejected_frames"] >= 1
            assert gw.metrics()["routed_updates"] == 0
        finally:
            gw.close()

    def test_server_side_range_error_latches_until_sync(self, gateway):
        with GatewayClient(gateway.address) as client:
            # Bypass the client's local validation: a COO frame with
            # coordinates beyond the shape must latch server-side.
            coo = np.concatenate(
                [np.array([2 ** 40, 1], np.uint64), np.array([1.0]).view(np.uint64)]
            )
            client._send(F_DATA_COO, coo.tobytes())
            with pytest.raises(GatewayError, match="InvalidIndex"):
                client.sync()
            # The connection keeps serving after reporting the error.
            client.update([1], [1], [1.0])
            assert client.sync()["acked"] == 1

    def test_misaligned_data_frames_latch_and_apply_nothing(self, gateway):
        """A data frame that is not a whole number of records is refused."""
        with GatewayClient(gateway.address) as client:
            record = np.array([(1 << 32) | 2, 0x4008000000000000], np.uint64).tobytes()
            client._send(F_DATA, record + b"\x00")  # 17 bytes: 1 record + 1
            client._send(F_DATA_KEYONLY, record[:8] + b"\x00" * 3)  # 11 bytes
            with pytest.raises(GatewayError, match="ValueError"):
                client.sync()
            assert client.get(1, 2) is None
            assert gateway.metrics()["rejected_frames"] >= 1
            client.update([1], [2], [3.0])
            assert client.sync()["acked"] == 1

    def test_operator_mismatch_latches_and_drops(self, gateway):
        with GatewayClient(gateway.address) as client:
            client.update([1], [1], [1.0])  # applied under plus
            client.update([2], [2], [7.0], op="max")  # refused combiner
            with pytest.raises(GatewayError, match="single-combiner"):
                client.sync()
            # The max-op update was dropped, not applied.
            assert client.get(2, 2) is None
            client.update([3], [3], [1.0], op="plus")
            assert client.sync()["acked"] == 2

    def test_all_ones_batches_ride_key_only_frames(self, gateway):
        with GatewayClient(gateway.address) as client:
            client.update([1, 2, 3], [1, 2, 3], 1)
            assert client.sync()["acked"] == 3
        metrics = gateway.metrics()
        assert metrics["key_only_frames"] >= 1
        assert gateway.matrix.get(1, 1) == 1.0

    def test_close_with_a_client_connected_logs_no_error(self, caplog):
        """Closing drains the open connection's handler instead of cancelling
        it mid-read, which would log a CancelledError traceback."""
        matrix = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        gw = IngestGateway(matrix, flush_interval=0.01)
        gw.start()
        client = GatewayClient(gw.address)
        try:
            client.update([1], [1], [1.0])
            assert client.sync()["acked"] == 1
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                gw.close()
        finally:
            client.close()
            gw.close()
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [r for r in errors if r.name == "asyncio"] == []

    def test_close_drains_coalesced_updates(self):
        matrix = ShardedHierarchicalMatrix(2, cuts=CUTS)
        gw = IngestGateway(matrix, coalesce_updates=1 << 16, flush_interval=60.0)
        gw.start()
        try:
            client = GatewayClient(gw.address)
            rows = np.arange(100, dtype=np.uint64)
            client.update(rows, rows, np.full(100, 2.0))
            # Wait until the frame is parsed into the coalescer (the huge
            # flush interval guarantees it has not been routed yet).
            deadline = threading.Event()
            for _ in range(2000):
                if gw.metrics()["received_updates"] == 100:
                    break
                deadline.wait(0.005)
            assert gw.metrics()["received_updates"] == 100
            assert gw.metrics()["routed_updates"] == 0
            client.close()
            gw.close()  # drain happens here
            assert matrix.materialize().nvals == 100
            assert matrix.get(5, 5) == 2.0
        finally:
            gw.close()
            matrix.close()

    @pytest.mark.parametrize("nclients", [1, 4, 16])
    def test_split_stream_delivered_exactly(self, nclients):
        """One stream split over N concurrent clients arrives whole."""
        total, batch = 8_000, 500
        per_client = total // nclients
        rng = np.random.default_rng(nclients)
        shares = []
        for _ in range(nclients):
            rows = rng.integers(0, 2 ** 22, per_client, dtype=np.uint64)
            cols = rng.integers(0, 2 ** 22, per_client, dtype=np.uint64)
            vals = rng.integers(1, 10, per_client).astype(np.float64)
            shares.append((rows, cols, vals))
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for rows, cols, vals in shares:
            flat.update(rows, cols, vals)
        failures = []
        barrier = threading.Barrier(nclients)

        def run(client_id, share):
            try:
                with GatewayClient(gw.address, client_id=f"c{client_id}") as client:
                    barrier.wait()
                    rows, cols, vals = share
                    for lo in range(0, per_client, batch):
                        hi = lo + batch
                        client.update(rows[lo:hi], cols[lo:hi], vals[lo:hi])
                    assert client.sync()["acked"] == per_client
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        with ShardedHierarchicalMatrix(4, cuts=CUTS) as matrix:
            with IngestGateway(matrix, coalesce_updates=8192, flush_interval=0.005) as gw:
                threads = [
                    threading.Thread(target=run, args=(i, share))
                    for i, share in enumerate(shares)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert failures == []
                metrics = gw.metrics()
                assert metrics["clients_total"] == nclients
                assert metrics["received_updates"] == metrics["routed_updates"] == total
                assert matrix.materialize().isequal(flat.materialize())

    def test_serves_a_plain_hierarchical_matrix(self):
        """Single-node serving: no sharding, no pressure signal, epoch 0."""
        matrix = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        with IngestGateway(matrix, flush_interval=0.01) as gw:
            with GatewayClient(gw.address) as client:
                client.update([1, 2], [3, 4], [1.5, 2.5])
                assert client.sync() == {"acked": 2, "epoch": 0}
                assert client.nnz() == 2
                assert client.pressure() == 0.0
        assert matrix.get(2, 4) == 2.5

    def test_gateway_rebalances_live_clients(self):
        """An attached rebalancer migrates mid-serving; reads stay exact."""
        matrix = ShardedHierarchicalMatrix(3, cuts=CUTS, partition="range")
        # A clock frozen before the first due check: the policy thread's
        # maybe_step() never fires, so only rebalance_now() can migrate and
        # its reports cannot be pre-empted by the timer.
        policy = AutoRebalancer(
            matrix, trigger=1.2, interval=0.01, cooldown=0.01, clock=lambda: -1.0
        )
        gw = IngestGateway(matrix, flush_interval=0.01, rebalancer=policy)
        gw.start()
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        try:
            with GatewayClient(gw.address) as client:
                rng = np.random.default_rng(7)
                for _ in range(20):
                    n = int(rng.integers(50, 200))
                    # Rows skewed into the first shard's range → imbalance.
                    rows = rng.integers(0, 2 ** 10, n, dtype=np.uint64)
                    cols = rng.integers(0, 2 ** 20, n, dtype=np.uint64)
                    vals = rng.integers(1, 5, n).astype(np.float64)
                    client.update(rows, cols, vals)
                    flat.update(rows, cols, vals)
                client.sync()
                reports = gw.rebalance_now()
                events = client.rebalance_events()
                assert len(events) == len(policy.events) >= len(reports) > 0
                assert client.epoch() >= 1
            assert matrix.materialize().isequal(flat.materialize())
        finally:
            gw.close()
            matrix.close()


# --------------------------------------------------------------------------- #
# Backpressure accounting (scripted pressure, fake matrix)
# --------------------------------------------------------------------------- #


class FakePressureMatrix:
    """Minimal gateway-servable matrix with a scripted pressure sequence."""

    nrows = 2 ** 32
    ncols = 2 ** 32
    dtype = lookup_dtype("fp64")
    accum = SimpleNamespace(name="plus")

    def __init__(self, pressures):
        self._pressures = list(pressures)
        self.applied = 0

    def ingest_pressure(self):
        if len(self._pressures) > 1:
            return self._pressures.pop(0)
        return self._pressures[0]

    def update(self, rows, cols, values=1):
        self.applied += int(np.asarray(rows).size)

    @property
    def nvals(self):
        return 0


class TestBackpressure:
    def test_high_watermark_pauses_routing(self):
        # First reading is above the high watermark; the route coroutine
        # must record a wait and poll until the script falls below low.
        matrix = FakePressureMatrix([0.9, 0.9, 0.9, 0.1])
        gw = IngestGateway(
            matrix, coalesce_updates=8, flush_interval=0.01,
            high_watermark=0.75, low_watermark=0.25,
        )
        gw.start()
        try:
            with GatewayClient(gw.address) as client:
                rows = np.arange(32, dtype=np.uint64)
                client.update(rows, rows, np.full(32, 2.0))
                assert client.sync()["acked"] == 32
        finally:
            gw.close()
        assert matrix.applied == 32
        assert gw.metrics()["backpressure_waits"] >= 1

    def test_zero_high_watermark_disables_the_gate(self):
        matrix = FakePressureMatrix([1.0])
        gw = IngestGateway(
            matrix, coalesce_updates=8, flush_interval=0.01,
            high_watermark=0.0, low_watermark=0.0,
        )
        gw.start()
        try:
            with GatewayClient(gw.address) as client:
                rows = np.arange(16, dtype=np.uint64)
                client.update(rows, rows, np.full(16, 2.0))
                assert client.sync()["acked"] == 16
        finally:
            gw.close()
        assert gw.metrics()["backpressure_waits"] == 0

    def test_watermark_validation(self):
        matrix = FakePressureMatrix([0.0])
        with pytest.raises(ValueError):
            IngestGateway(matrix, high_watermark=0.2, low_watermark=0.5)
