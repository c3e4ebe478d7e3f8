"""Soak test: long randomized op interleaving over the process wire.

Marked ``slow``: a single long scenario rather than a property battery.  A
process-backed sharded matrix — in both connection modes of the socket wire,
forked over socket pairs and dialled through local
:class:`~repro.distributed.NodeAgent` endpoints — absorbs a randomized
interleaving of ``ingest`` / ``stats`` /
``materialize`` / ``reduce_incremental`` / ``finalize`` / point reads, and
after *every* read the incrementally maintained tracker statistics must
agree bit-for-bit with the materialize path and with a flat reference fed
the same stream — i.e. the packed-key wire never drops, duplicates,
reorders-across-a-barrier, or corrupts a batch no matter how reads and
writes interleave with the wire's backpressure.

Deselect with ``-m "not slow"`` when iterating locally.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import HierarchicalMatrix
from repro.distributed import ShardedHierarchicalMatrix, spawn_local_agents

from .conftest import PROCESS_MODES

pytestmark = pytest.mark.slow

CUTS = [300, 3_000]
NSHARDS = 3
OPS = 120
MAX_BATCH = 400


@contextlib.contextmanager
def _soak_matrix(mode, partition):
    with contextlib.ExitStack() as stack:
        kwargs = {"use_processes": True}
        if mode == "agent":
            addresses, _procs = stack.enter_context(spawn_local_agents(2))
            kwargs["nodes"] = addresses
        sharded = stack.enter_context(
            ShardedHierarchicalMatrix(
                NSHARDS, cuts=CUTS, partition=partition, **kwargs
            )
        )
        assert sharded.transport == "socket"
        yield sharded


@pytest.mark.parametrize("mode", PROCESS_MODES)
@pytest.mark.parametrize("partition", ["hash", "range"])
def test_soak_interleaved_ops_stay_bit_identical(mode, partition):
    rng = np.random.default_rng(2024)
    flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
    total = 0
    with _soak_matrix(mode, partition) as sharded:
        for step in range(OPS):
            op = rng.choice(
                ["ingest", "ingest", "ingest", "stats", "materialize", "reduce", "get"]
            )
            if op == "ingest":
                n = int(rng.integers(1, MAX_BATCH))
                rows = rng.integers(0, 2 ** 20, n, dtype=np.uint64)
                cols = rng.integers(0, 2 ** 20, n, dtype=np.uint64)
                vals = rng.integers(1, 10, n).astype(np.float64)
                sharded.update(rows, cols, vals)
                flat.update(rows, cols, vals)
                total += n
            elif op == "stats":
                inc = sharded.incremental
                assert inc.supported and inc.fan_supported
                merged = sharded.materialize()
                assert inc.nnz() == merged.nvals, f"step {step}"
                assert inc.total() == float(merged.reduce_scalar("plus")), f"step {step}"
            elif op == "materialize":
                assert sharded.materialize().isequal(flat.materialize()), f"step {step}"
            elif op == "reduce":
                assert sharded.incremental.row_traffic().isequal(
                    flat.materialize().reduce_rowwise("plus")
                ), f"step {step}"
                assert sharded.reduce_columnwise("plus").isequal(
                    flat.materialize().reduce_columnwise("plus")
                ), f"step {step}"
            else:  # get
                r = int(rng.integers(0, 2 ** 20))
                c = int(rng.integers(0, 2 ** 20))
                assert sharded.get(r, c, default=None) == flat.get(r, c, None)
        # Final barrier and full agreement after the storm.
        reports = sharded.finalize()
        assert sum(s["total_updates"] for s in reports) == total
        assert sharded.materialize().isequal(flat.materialize())
        assert sharded.incremental.nnz() == flat.materialize().nvals


# --------------------------------------------------------------------------- #
# Gateway soak: many concurrent clients through the full service stack
# --------------------------------------------------------------------------- #

NCLIENTS = 32
BATCHES_PER_CLIENT = 16


def _gateway_client_batches(seed):
    """One client's randomized stream: skewed rows (to force migrations),
    mixed batch sizes, integer-valued floats (exact under regrouped plus)."""
    rng = np.random.default_rng(seed)
    for _ in range(BATCHES_PER_CLIENT):
        n = int(rng.integers(1, MAX_BATCH))
        # Rows concentrated in the first range shard; the auto-rebalancer
        # must migrate slabs off it while all 32 clients keep streaming.
        rows = rng.integers(0, 2 ** 12, n, dtype=np.uint64)
        cols = rng.integers(0, 2 ** 20, n, dtype=np.uint64)
        vals = rng.integers(1, 10, n).astype(np.float64)
        yield rows, cols, vals


def test_gateway_soak_concurrent_clients_bit_identical():
    """The acceptance scenario: ≥32 concurrent clients through real
    socket-backed shards, snapshot reads and auto-rebalances interleaved
    mid-stream, and the final state bit-identical to a flat reference fed
    the merged stream."""
    import threading

    from repro.service import AutoRebalancer, GatewayClient, IngestGateway

    failures = []
    with contextlib.ExitStack() as stack:
        addresses, _procs = stack.enter_context(spawn_local_agents(2))
        sharded = stack.enter_context(
            ShardedHierarchicalMatrix(
                NSHARDS, cuts=CUTS, partition="range",
                use_processes=True, nodes=addresses,
            )
        )
        assert sharded.transport == "socket"
        policy = AutoRebalancer(
            sharded, trigger=1.2, interval=0.05, cooldown=0.05
        )
        gw = IngestGateway(
            sharded, coalesce_updates=2048, flush_interval=0.01,
            rebalancer=policy,
        )
        gw.start()
        stack.callback(gw.close)

        def run_client(seed):
            try:
                rng = np.random.default_rng(1000 + seed)
                with GatewayClient(gw.address, client_id=f"soak-{seed}") as client:
                    sent = 0
                    for rows, cols, vals in _gateway_client_batches(seed):
                        client.update(rows, cols, vals)
                        sent += rows.size
                        # Interleave snapshot reads with everyone's ingest:
                        # epoch-consistent answers, never an error or hang.
                        read = rng.choice(["none", "none", "stats", "nnz", "get", "sync"])
                        if read == "stats":
                            summary = client.stats()
                            assert summary["nnz"] >= 0
                        elif read == "nnz":
                            assert client.nnz() >= 0
                        elif read == "get":
                            client.get(int(rng.integers(0, 2 ** 12)), int(rng.integers(0, 2 ** 20)))
                        elif read == "sync":
                            assert client.sync()["acked"] <= sent
                    assert client.sync()["acked"] == sent == client.sent_updates
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append((seed, exc))

        threads = [
            threading.Thread(target=run_client, args=(seed,), name=f"soak-client-{seed}")
            for seed in range(NCLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

        # The skewed stream must have forced at least one live migration.
        assert sharded.map_epoch >= 1
        assert len(policy.events) >= 1

        # Flat reference fed the merged stream (order-independent under
        # plus with exactly representable values — see workloads.interleave).
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for seed in range(NCLIENTS):
            for rows, cols, vals in _gateway_client_batches(seed):
                flat.update(rows, cols, vals)
        gw.close()  # drain + stop before the final materialize
        assert sharded.materialize().isequal(flat.materialize())
        assert sharded.incremental.nnz() == flat.materialize().nvals
        metrics = gw.metrics()
        assert metrics["clients_total"] == NCLIENTS
        assert metrics["routed_updates"] == metrics["received_updates"]
