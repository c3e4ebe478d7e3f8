"""Benchmark: ingest gateway aggregate throughput vs. concurrent client count.

The gateway's job is to turn many small client streams into few large router
batches, so its headline number is how the *aggregate* accepted-update rate
behaves as clients are added: coalescing should keep per-update cost roughly
flat (the router sees ``coalesce_updates``-sized batches regardless of how
many clients contributed), so N clients must not collapse the rate below
what a single client achieves alone.

Each sweep point streams the same total update count split evenly across N
threaded :class:`~repro.service.GatewayClient` connections into one
in-process 4-shard matrix behind an :class:`~repro.service.IngestGateway`,
syncs every client (so the time window covers full durability, not just
socket writes), and records the aggregate rate.  Results land in the
``gateway`` section of ``BENCH_kernels.json`` and in ``gateway_sweep.txt``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.distributed import ShardedHierarchicalMatrix
from repro.service import GatewayClient, IngestGateway

from .conftest import scaled, update_bench_json, write_report

pytestmark = pytest.mark.bench

TOTAL = scaled(200_000, minimum=20_000)
BATCH = 1_000
CLIENT_COUNTS = [1, 4, 16, 32]
CUTS = [2 ** 13, 2 ** 16, 2 ** 19]

_results = {}


def _client_batches(seed: int, total: int):
    """One client's share of the stream in ~BATCH-sized update batches."""
    rng = np.random.default_rng(seed)
    remaining = total
    while remaining > 0:
        n = min(BATCH, remaining)
        remaining -= n
        rows = rng.integers(0, 2 ** 22, n, dtype=np.uint64)
        cols = rng.integers(0, 2 ** 22, n, dtype=np.uint64)
        vals = rng.integers(1, 10, n).astype(np.float64)
        yield rows, cols, vals


def _run_point(nclients: int) -> dict:
    per_client = TOTAL // nclients
    failures = []
    with ShardedHierarchicalMatrix(4, cuts=CUTS) as sharded:
        gw = IngestGateway(sharded, coalesce_updates=8192, flush_interval=0.005)
        gw.start()
        try:
            barrier = threading.Barrier(nclients + 1)

            def run_client(seed):
                try:
                    with GatewayClient(
                        gw.address, client_id=f"bench-{seed}"
                    ) as client:
                        barrier.wait()
                        sent = 0
                        for rows, cols, vals in _client_batches(seed, per_client):
                            client.update(rows, cols, vals)
                            sent += rows.size
                        assert client.sync()["acked"] == sent
                except Exception as exc:  # pragma: no cover - surfaced below
                    failures.append((seed, exc))

            threads = [
                threading.Thread(target=run_client, args=(seed,))
                for seed in range(nclients)
            ]
            for t in threads:
                t.start()
            barrier.wait()  # start the clock after every client has connected
            start = time.perf_counter()
            for t in threads:
                t.join(timeout=300)
            elapsed = time.perf_counter() - start
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            metrics = gw.metrics()
        finally:
            gw.close()
    total_sent = per_client * nclients
    assert metrics["routed_updates"] == total_sent
    return {
        "clients": nclients,
        "updates": total_sent,
        "seconds": round(elapsed, 6),
        "rate": round(total_sent / elapsed, 1) if elapsed > 0 else 0.0,
        "router_batches": int(metrics["routed_batches"]),
    }


class TestGatewaySweep:
    def test_single_pack_per_update(self, benchmark):
        """The gateway path packs each update batch exactly once.

        The client packs its coordinates into wire keys; the gateway decodes
        them, threads them through the coalescer, and the router reuses them
        (``route(..., keys=...)``) instead of re-packing.  With the shard
        workers in separate processes, every ``coords.pack`` observable here
        is either the client's wire encoding or a router re-pack — so the
        counter delta across the send window must equal the number of client
        batches exactly (it was 2x that when the gateway re-partitioned).
        """
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        from repro.graphblas import coords

        nbatches = 40
        with ShardedHierarchicalMatrix(4, cuts=CUTS, use_processes=True) as sharded:
            gw = IngestGateway(sharded, coalesce_updates=8192, flush_interval=0.005)
            gw.start()
            try:
                with GatewayClient(gw.address, client_id="pack-count") as client:
                    before = coords.pack_calls()
                    sent = 0
                    for rows, cols, vals in _client_batches(7, nbatches * BATCH):
                        client.update(rows, cols, vals)
                        sent += rows.size
                    assert client.sync()["acked"] == sent
                    packs = coords.pack_calls() - before
            finally:
                gw.close()
        assert packs == nbatches, (
            f"expected one pack per update batch ({nbatches}), saw {packs} — "
            "the router is re-packing gateway batches"
        )

    def test_client_scaling(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        # Each point asserts exact delivery (acked == sent == routed); the
        # rates are recorded, and the report prints the multi/single ratio.
        _results["points"] = [_run_point(n) for n in CLIENT_COUNTS]

    def test_zz_report(self, benchmark, results_dir):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert "points" in _results
        points = _results["points"]
        lines = [
            f"Gateway aggregate ingest rate vs concurrent clients "
            f"({TOTAL:,} updates total per point, 4 shards, cuts={CUTS})",
            "",
            f"{'clients':>8} {'updates':>10} {'seconds':>10} "
            f"{'rate (upd/s)':>14} {'router batches':>15}",
            "-" * 62,
        ]
        for p in points:
            lines.append(
                f"{p['clients']:>8} {p['updates']:>10,} {p['seconds']:>10.3f} "
                f"{p['rate']:>14,.0f} {p['router_batches']:>15,}"
            )
        single = points[0]["rate"]
        best_multi = max(p["rate"] for p in points[1:])
        lines += [
            "",
            f"best multi-client / single-client rate: "
            f"{best_multi / single if single else 0.0:.2f}x (recorded, not asserted;",
            "a serialization bug would show as a near-1/N cliff).",
            "",
            "each point splits the same total across N threaded clients and",
            "times connect-to-final-sync; the gateway coalesces client frames",
            "into router batches, so router batches stay far below the number",
            "of client update() calls.",
        ]
        write_report(results_dir, "gateway_sweep", lines)
        update_bench_json(
            results_dir,
            "gateway",
            {
                "total_updates": TOTAL,
                "batch": BATCH,
                "cuts": CUTS,
                "coalesce_updates": 8192,
                "points": points,
            },
        )
