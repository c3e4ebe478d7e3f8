"""The sharded engine on the paper's stream shape, over every worker mode.

The paper's 75e9 updates/s is a sum over independent instances, which is
only meaningful if sharding one stream changes nothing but placement.  These
checks stream power-law batches through 1, 2 and 4 shards — a fixed stream
(strong scaling) and one that grows with the shard count (weak scaling) —
and through the socket wire behind local node agents, with and without
mirrored replicas, and hold every configuration to the flat
:class:`~repro.core.HierarchicalMatrix` fed the same batches.  The rates
themselves are measured by ``python -m bench``; no assertion here reads a
clock.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pytest

from repro.analytics import degree_summary, supernode_report
from repro.core import HierarchicalMatrix
from repro.distributed import ShardedHierarchicalMatrix, spawn_local_agents
from repro.workloads import paper_stream
from repro.workloads.powerlaw import powerlaw_edges

from .conftest import PROCESS_MODES, mode_kwargs

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

SHARD_COUNTS = [1, 2, 4]
CUTS = [2**11, 2**14, 2**17]
STRONG_TOTAL = 20_000
WEAK_PER_SHARD = 5_000
BATCH = 1_000


@functools.lru_cache(maxsize=None)
def batches(total: int, seed: int = 7):
    return [
        (b.rows, b.cols, b.values)
        for b in paper_stream(total_entries=total, nbatches=total // BATCH, seed=seed)
    ]


@functools.lru_cache(maxsize=None)
def flat(total: int, seed: int = 7):
    H = HierarchicalMatrix(2**32, 2**32, cuts=CUTS)
    for rows, cols, vals in batches(total, seed):
        H.update(rows, cols, vals)
    return H.materialize()


def stream_sharded(nshards: int, total: int, seed: int = 7, **kwargs) -> dict:
    with ShardedHierarchicalMatrix(nshards, 2**32, 2**32, cuts=CUTS, **kwargs) as S:
        for rows, cols, vals in batches(total, seed):
            S.update(rows, cols, vals)
        finals = S.finalize()
        return {
            "transport": S.transport,
            "total_updates": S.total_updates,
            "batches": S.batches_ingested,
            "finals": finals,
            "reports": S.reports(),
            "matrix": S.materialize(),
        }


def assert_exact(run: dict, total: int, nshards: int, seed: int = 7) -> None:
    assert run["total_updates"] == total
    assert run["batches"] == total // BATCH
    assert len(run["reports"]) == nshards
    assert sum(r.total_updates for r in run["reports"]) == total
    assert sum(f["total_updates"] for f in run["finals"]) == total
    assert sum(r.final_nvals for r in run["reports"]) == run["matrix"].nvals
    assert run["matrix"].isequal(flat(total, seed))


class TestStrongScaling:
    """A fixed external stream routed over 1, 2 and 4 shards."""

    @pytest.mark.parametrize("nshards", SHARD_COUNTS)
    def test_inproc(self, nshards):
        run = stream_sharded(nshards, STRONG_TOTAL, **mode_kwargs("inproc"))
        assert run["transport"] == "inproc"
        assert_exact(run, STRONG_TOTAL, nshards)

    @needs_fork
    @pytest.mark.parametrize("nshards", SHARD_COUNTS[1:])
    def test_forked_workers(self, nshards):
        run = stream_sharded(nshards, STRONG_TOTAL, **mode_kwargs("local"))
        assert run["transport"] == "socket"
        assert_exact(run, STRONG_TOTAL, nshards)


class TestWeakScaling:
    """The stream grows with the shard count: WEAK_PER_SHARD updates each."""

    @pytest.mark.parametrize("nshards", SHARD_COUNTS)
    def test_inproc(self, nshards):
        total = WEAK_PER_SHARD * nshards
        run = stream_sharded(nshards, total, seed=nshards, **mode_kwargs("inproc"))
        assert_exact(run, total, nshards, seed=nshards)


@needs_fork
class TestProcessWire:
    @pytest.mark.parametrize("mode", PROCESS_MODES)
    def test_four_shards_equal_flat(self, mode):
        run = stream_sharded(4, STRONG_TOTAL, **mode_kwargs(mode))
        assert run["transport"] == "socket"
        assert_exact(run, STRONG_TOTAL, 4)

    @pytest.mark.parametrize("nagents", [1, 2])
    def test_socket_cluster(self, nagents):
        """Two shard workers per node agent, the paper's processes-per-node shape."""
        nshards = 2 * nagents
        total = WEAK_PER_SHARD * nshards
        with spawn_local_agents(nagents) as (addresses, _procs):
            run = stream_sharded(
                nshards, total, seed=11, use_processes=True, nodes=addresses
            )
        assert run["transport"] == "socket"
        assert_exact(run, total, nshards, seed=11)

    def test_socket_cluster_with_replicas(self):
        with spawn_local_agents(2) as (addresses, _procs):
            run = stream_sharded(
                4, STRONG_TOTAL, seed=11, use_processes=True, nodes=addresses, replicas=1
            )
        assert_exact(run, STRONG_TOTAL, 4, seed=11)


class TestAnalyticsAcrossShards:
    def test_incremental_stats_match_materialized(self):
        with ShardedHierarchicalMatrix(4, 2**32, 2**32, cuts=CUTS) as S:
            for rows, cols, vals in batches(STRONG_TOTAL):
                S.update(rows, cols, vals)
            summary = degree_summary(S)
            assert summary == degree_summary(S, materialized=True)
            assert supernode_report(S, 10) == supernode_report(S, 10, materialized=True)
        assert summary["nnz"] == flat(STRONG_TOTAL).nvals
        assert summary["total_traffic"] == STRONG_TOTAL


class TestSkewedRebalance:
    """Every key of a skewed stream lands in shard 0's uniform range slab;
    live migration between batches must even the load and change nothing
    in the logical matrix."""

    NSHARDS = 4
    TOTAL = 12_000

    def skewed(self):
        out = []
        for b in range(self.TOTAL // BATCH):
            rows, cols = powerlaw_edges(BATCH, nnodes=2**24, seed=101 + b)
            out.append((rows, cols, np.ones(BATCH)))
        return out

    def run(self, rebalance: bool):
        stream = self.skewed()
        migrations = 0
        with ShardedHierarchicalMatrix(
            self.NSHARDS, 2**32, 2**32, cuts=CUTS, partition="range"
        ) as S:
            for i, (rows, cols, vals) in enumerate(stream):
                S.update(rows, cols, vals)
                if rebalance and i >= len(stream) // 3:
                    migrations += S.rebalance(threshold=1.25) is not None
            return S.imbalance("nnz"), migrations, S.map_epoch, S.materialize()

    def test_migration_evens_load_and_keeps_content(self):
        static_imbalance, _, static_epoch, static = self.run(rebalance=False)
        imbalance, migrations, epoch, rebalanced = self.run(rebalance=True)
        assert static_imbalance == pytest.approx(self.NSHARDS)
        assert static_epoch == 0
        assert migrations >= 1 and epoch == migrations
        assert imbalance < static_imbalance
        assert rebalanced.isequal(static)
