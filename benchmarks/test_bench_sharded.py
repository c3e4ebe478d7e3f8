"""Strong/weak-scaling benchmark of the sharded streaming engine.

The paper's headline aggregate rate is a sum over independent instances; the
sharded engine reproduces that sum as one logical matrix.  This harness sweeps
the shard count two ways and records the trajectory into
``BENCH_kernels.json``:

* **strong scaling** — a fixed external stream is routed across 1, 2, 4
  shards; per-shard measured rates are summed (the paper's aggregation) and
  the single-clock wall rate is recorded alongside.
* **weak scaling** — the stream grows with the shard count (fixed updates per
  shard), the paper's actual experimental shape.
* **rebalance sweep (PR 5)** — a skewed stream with and without live slab
  migration, reported as ``rebalance_sweep.txt``.

Shards run as real worker processes forked over the socket wire when the
platform can fork (matching the serving configuration); a correctness gate
asserts the sharded result stays bit-identical to a flat hierarchical matrix
fed the same stream, with workers forked locally and hosted by node agents.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
import pytest

from repro.core import HierarchicalMatrix
from repro.distributed import ShardedHierarchicalMatrix, spawn_local_agents
from repro.workloads import paper_stream
from repro.workloads.powerlaw import powerlaw_edges

from .conftest import scaled, update_bench_json, write_report

pytestmark = pytest.mark.bench

SHARD_COUNTS = [1, 2, 4]
STRONG_TOTAL = scaled(200_000, minimum=20_000)
WEAK_PER_SHARD = scaled(100_000, minimum=10_000)
BATCH = max(STRONG_TOTAL // 20, 1_000)
CUTS = [2 ** 15, 2 ** 18, 2 ** 21]
USE_PROCESSES = hasattr(os, "fork")

_strong = {}
_weak = {}

#: Rebalance sweep shape: a skewed stream whose active rows occupy only the
#: bottom 2^24 of the 2^32 row space — under the uniform range partition every
#: key lands on shard 0, the worst case live rebalancing exists to fix.
REB_SHARDS = 4
REB_TOTAL = scaled(120_000, minimum=12_000)
REB_NODES = 2 ** 24


def _skewed_batches(total: int, batch: int):
    """Power-law batches confined to a narrow row prefix (subnet-style skew)."""
    out = []
    done = 0
    b = 0
    while done < total:
        n = min(batch, total - done)
        rows, cols = powerlaw_edges(n, nnodes=REB_NODES, seed=101 + b)
        out.append((rows, cols, np.ones(n)))
        done += n
        b += 1
    return out


def _run_sharded(nshards: int, total: int):
    """Route one externally generated stream across nshards; return metrics."""
    batches = list(paper_stream(total_entries=total, nbatches=max(total // BATCH, 1), seed=7))
    with ShardedHierarchicalMatrix(
        nshards,
        2 ** 32,
        2 ** 32,
        cuts=CUTS,
        use_processes=USE_PROCESSES and nshards > 1,
    ) as matrix:
        wire = matrix.transport
        wall_start = time.perf_counter()
        for batch in batches:
            matrix.update(batch.rows, batch.cols, batch.values)
        matrix.finalize()
        wall = time.perf_counter() - wall_start
        reports = matrix.reports()
        nvals = matrix.materialize().nvals
    total_updates = sum(r.total_updates for r in reports)
    return {
        "shards": nshards,
        "transport": wire,
        "total_updates": total_updates,
        "wall_seconds": round(wall, 6),
        "rate_sum": round(sum(r.updates_per_second for r in reports), 1),
        "rate_wall": round(total_updates / wall if wall > 0 else 0.0, 1),
        "global_nvals": nvals,
    }


class TestShardedScaling:
    @pytest.mark.parametrize("mode", ["local", "agent"])
    def test_equivalence_gate(self, benchmark, mode):
        """Before timing anything: sharded == flat over the process wire, with
        workers forked by the router (local) and hosted by agents (agent)."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        total = min(STRONG_TOTAL, 20_000)
        batches = list(paper_stream(total_entries=total, nbatches=10, seed=7))
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for b in batches:
            flat.update(b.rows, b.cols, b.values)
        with contextlib.ExitStack() as stack:
            nodes = None
            if mode == "agent" and USE_PROCESSES:
                nodes, _procs = stack.enter_context(spawn_local_agents(2))
            sharded = stack.enter_context(
                ShardedHierarchicalMatrix(
                    4, cuts=CUTS, use_processes=USE_PROCESSES, nodes=nodes
                )
            )
            for b in batches:
                sharded.update(b.rows, b.cols, b.values)
            assert sharded.materialize().isequal(flat.materialize())

    @pytest.mark.parametrize("nshards", SHARD_COUNTS)
    def test_strong_scaling(self, benchmark, nshards):
        """Fixed stream of STRONG_TOTAL updates, swept over shard counts."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        _strong[nshards] = _run_sharded(nshards, STRONG_TOTAL)
        assert _strong[nshards]["total_updates"] == STRONG_TOTAL

    @pytest.mark.parametrize("nshards", SHARD_COUNTS)
    def test_weak_scaling(self, benchmark, nshards):
        """Stream grows with the shard count: WEAK_PER_SHARD updates each."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        _weak[nshards] = _run_sharded(nshards, WEAK_PER_SHARD * nshards)
        assert _weak[nshards]["total_updates"] == WEAK_PER_SHARD * nshards

    def test_rebalance_sweep(self, benchmark, results_dir):
        """Skewed-stream live rebalancing vs the static range partition (PR 5).

        The same skewed stream (every key in shard 0's uniform range slab)
        runs twice: once static, once with the auto policy interleaving
        migrations with ingest — the stream is never stopped; batches keep
        routing between rebalance rounds and the migration barriers overlap
        the other shards' ingest.  Recorded: per-shard nnz loads, the
        max/mean imbalance ratio, migrations, map epoch, and both aggregate
        rates.  The acceptance gate is imbalance strictly reduced vs static.
        """
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        batches = _skewed_batches(REB_TOTAL, BATCH)
        results = {}
        for label in ("static", "rebalanced"):
            with ShardedHierarchicalMatrix(
                REB_SHARDS,
                2 ** 32,
                2 ** 32,
                cuts=CUTS,
                partition="range",
                use_processes=USE_PROCESSES,
            ) as matrix:
                wire = matrix.transport
                events = []
                wall_start = time.perf_counter()
                for i, (rows, cols, vals) in enumerate(batches):
                    matrix.update(rows, cols, vals)
                    # Start checking once the skew is established; migration
                    # rounds interleave with live batches from then on.
                    if label == "rebalanced" and i >= len(batches) // 3:
                        report = matrix.rebalance(threshold=1.25)
                        if report is not None:
                            events.append(report)
                matrix.finalize()
                wall = time.perf_counter() - wall_start
                loads = matrix.shard_loads("nnz")
                imbalance = matrix.imbalance("nnz")
                reports = matrix.reports()
                nvals = matrix.materialize().nvals
                epoch = matrix.map_epoch
            results[label] = {
                "transport": wire,
                "wall_seconds": round(wall, 6),
                "rate_sum": round(sum(r.updates_per_second for r in reports), 1),
                "rate_wall": round(REB_TOTAL / wall if wall > 0 else 0.0, 1),
                "shard_nnz": [int(l) for l in loads],
                "imbalance": round(imbalance, 4),
                "migrations": len(events),
                "entries_moved": int(sum(e.moved for e in events)),
                "map_epoch": epoch,
                "global_nvals": nvals,
            }
        # Correctness gate: migration must not change the logical matrix.
        assert results["rebalanced"]["global_nvals"] == results["static"]["global_nvals"]
        # The acceptance criterion: live rebalancing reduces the skew the
        # static range partition is stuck with (4.0 here: all keys on one of
        # four shards).
        assert results["rebalanced"]["imbalance"] < results["static"]["imbalance"]
        assert results["rebalanced"]["migrations"] >= 1
        header = (
            f"{'transport':>10} {'variant':>11} {'imbalance':>10} {'migrations':>11} "
            f"{'moved':>9} {'rate wall':>13} {'per-shard nnz'}"
        )
        lines = [
            "Live rebalance sweep: skewed stream "
            f"({REB_TOTAL:,} updates, rows < 2^24 of a 2^32 space, "
            f"{REB_SHARDS} shards, range partition, processes={USE_PROCESSES})",
            "",
            header,
            "-" * len(header),
        ]
        for label in ("static", "rebalanced"):
            m = results[label]
            lines.append(
                f"{m['transport']:>10} {label:>11} {m['imbalance']:>10.3f} "
                f"{m['migrations']:>11} {m['entries_moved']:>9,} "
                f"{m['rate_wall']:>13,.0f} {m['shard_nnz']}"
            )
        lines += [
            "",
            "imbalance is max/mean per-shard stored-entry count (1.0 = even).",
            "The static uniform range map pins this skewed stream onto one",
            "shard (imbalance = shard count); the auto policy migrates slabs",
            "between live workers *while the stream keeps flowing* — ingest is",
            "never stopped, in-flight batches are fenced by the map epoch, and",
            "global_nvals is asserted identical to the static run.",
        ]
        write_report(results_dir, "rebalance_sweep", lines)
        update_bench_json(
            results_dir,
            "rebalance",
            {
                "shards": REB_SHARDS,
                "total_updates": REB_TOTAL,
                "row_space": REB_NODES,
                "partition": "range",
                "use_processes": USE_PROCESSES,
                **results,
            },
        )

    def test_zz_scaling_report(self, benchmark, results_dir):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert len(_strong) == len(SHARD_COUNTS)
        assert len(_weak) == len(SHARD_COUNTS)
        header = (
            f"{'shards':>7} {'updates':>12} {'wall s':>9} "
            f"{'rate sum':>14} {'rate wall':>14}"
        )
        lines = [
            "Sharded streaming engine scaling "
            f"(processes={USE_PROCESSES}, batch={BATCH:,}, cuts={CUTS})",
            "",
            f"strong scaling: {STRONG_TOTAL:,} total updates, externally fed",
            header,
            "-" * len(header),
        ]
        for k in SHARD_COUNTS:
            m = _strong[k]
            lines.append(
                f"{m['shards']:>7} {m['total_updates']:>12,} {m['wall_seconds']:>9.3f} "
                f"{m['rate_sum']:>14,.0f} {m['rate_wall']:>14,.0f}"
            )
        lines += [
            "",
            f"weak scaling: {WEAK_PER_SHARD:,} updates per shard",
            header,
            "-" * len(header),
        ]
        for k in SHARD_COUNTS:
            m = _weak[k]
            lines.append(
                f"{m['shards']:>7} {m['total_updates']:>12,} {m['wall_seconds']:>9.3f} "
                f"{m['rate_sum']:>14,.0f} {m['rate_wall']:>14,.0f}"
            )
        lines += [
            "",
            "rate sum is the paper's aggregation (independent per-shard clocks);",
            "rate wall is the stricter single-clock rate including routing and IPC.",
        ]
        write_report(results_dir, "sharded_scaling", lines)

        update_bench_json(
            results_dir,
            "sharded",
            {
                "use_processes": USE_PROCESSES,
                "batch_size": BATCH,
                "cuts": CUTS,
                "strong": [_strong[k] for k in SHARD_COUNTS],
                "weak": [_weak[k] for k in SHARD_COUNTS],
            },
        )
