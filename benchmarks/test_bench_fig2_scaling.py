"""Figure 2: update rate as a function of the number of servers.

The paper's only figure with data plots the aggregate update rate of
hierarchical GraphBLAS on 1 ... 1,100 MIT SuperCloud nodes against previously
published results (Hierarchical D4M, Accumulo D4M, SciDB D4M, Accumulo, Oracle
TPC-C, CrateDB).  The headline point is 75,000,000,000 updates/s at 1,100
nodes / 31,000 instances.

Reproduction strategy (per DESIGN.md): the per-instance rate is *measured*
locally for our hierarchical GraphBLAS and hierarchical D4M implementations,
the multi-node aggregate is produced by the SuperCloud weak-scaling model
(launch overhead + stragglers), and the database systems are carried as
published reference curves.  The benchmark prints the full rate-vs-servers
table — the same series as the figure — and records its qualitative shape;
only the model's own arithmetic is asserted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import PAPER_HEADLINE_RATE, HierarchicalD4MIngestor, published_series
from repro.core import HierarchicalMatrix
from repro.distributed import (
    ClusterConfig,
    ParallelIngestEngine,
    SuperCloudModel,
    build_figure2_table,
    format_table,
)
from repro.workloads import IngestSession, paper_stream

from .conftest import write_report

pytestmark = pytest.mark.bench

#: Cuts scaled to the laptop-sized measurement stream (see DESIGN.md / the
#: cut-sweep ablation); the paper's 2^17-entry first cut is tuned to a 100M
#: update stream on Xeon-class caches.
CUTS = [4_096, 32_768, 262_144]
SERVER_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1100)

_measured = {}


def _measure_hier_graphblas():
    H = HierarchicalMatrix(2**32, 2**32, "fp64", cuts=CUTS)
    return IngestSession(H, "hier-graphblas").run(
        paper_stream(total_entries=200_000, nbatches=50, seed=0)
    )


def _measure_hier_d4m():
    D = HierarchicalD4MIngestor(cuts=[1000, 10_000, 100_000])
    return IngestSession(D, "hier-d4m").run(
        paper_stream(total_entries=10_000, nbatches=10, seed=0)
    )


class TestFigure2:
    def test_measure_hierarchical_graphblas_instance(self, benchmark):
        result = benchmark.pedantic(_measure_hier_graphblas, rounds=1, iterations=1)
        _measured["Hierarchical GraphBLAS (measured)"] = result.updates_per_second

    def test_measure_hierarchical_d4m_instance(self, benchmark):
        result = benchmark.pedantic(_measure_hier_d4m, rounds=1, iterations=1)
        _measured["Hierarchical D4M (measured)"] = result.updates_per_second

    def test_local_parallel_engine_aggregates(self, benchmark):
        """The locally runnable slice of the scaling experiment: independent
        worker processes, aggregate rate = sum of per-worker rates."""
        engine = ParallelIngestEngine(nworkers=2, cuts=CUTS, use_processes=False)
        result = benchmark.pedantic(
            engine.run, kwargs={"updates_per_worker": 50_000, "batch_size": 10_000},
            rounds=1, iterations=1,
        )
        _measured.setdefault("Hierarchical GraphBLAS (measured)", result.mean_worker_rate)
        assert result.aggregate_rate_sum >= result.mean_worker_rate

    def test_zz_figure2_table_and_headline(self, benchmark, results_dir):
        """Emit the full Figure 2 table with its qualitative shape recorded."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep visible under --benchmark-only
        assert _measured, "measurement benchmarks must run first"
        rows = build_figure2_table(_measured, server_counts=SERVER_COUNTS)
        table = format_table(rows)

        model = SuperCloudModel(ClusterConfig.paper_configuration())
        projection = model.headline_projection(_measured["Hierarchical GraphBLAS (measured)"])

        by_system = {}
        for row in rows:
            by_system.setdefault(row.system, {})[row.servers] = row.updates_per_second
        hg = by_system["Hierarchical GraphBLAS (measured)"]
        hd = by_system["Hierarchical D4M (measured)"]
        published = published_series()
        # Comparisons of measured rates are recorded, not asserted: they
        # depend on the runner's speed, not on the code's correctness.
        shape = {
            "hier GraphBLAS > hier D4M at every scale": all(
                hg[n] > hd[n] for n in SERVER_COUNTS
            ),
            "hg[256] > Accumulo D4M at 216": hg[256] > published["accumulo_d4m"].rate_at(216),
            "hg[64] > SciDB D4M peak": hg[64] > published["scidb_d4m"].peak_rate,
            "hg[64] > CrateDB peak": hg[64] > published["cratedb"].peak_rate,
            "1,100-node aggregate > paper / 100": projection["aggregate_rate"]
            > PAPER_HEADLINE_RATE / 100,
            "hg[1100] > 1e9": hg[1100] > 1e9,
        }

        lines = [
            "Figure 2: update rate vs number of servers",
            "(measured per-instance rates extrapolated with the SuperCloud model;",
            " database systems shown at their published rates)",
            "",
            table,
            "",
            "Headline B: 31,000 instances on 1,100 nodes",
            f"  measured per-instance rate:      {projection['per_instance_rate']:,.0f} updates/s",
            f"  modelled aggregate rate:         {projection['aggregate_rate']:,.3e} updates/s",
            f"  paper headline rate:             {PAPER_HEADLINE_RATE:,.3e} updates/s",
            f"  ratio (this repro / paper):      {projection['ratio_to_paper']:.3f}",
            "",
            "expected shape (recorded, not asserted):",
            *(f"  {check:<44} {held}" for check, held in shape.items()),
        ]
        write_report(results_dir, "figure2_scaling", lines)

        # Pure model arithmetic (the model is linear in the per-instance
        # rate): weak scaling gives >100x from 1 to 1,100 nodes.
        assert hg[1100] > hg[1] * 100
