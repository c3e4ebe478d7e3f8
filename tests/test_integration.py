"""End-to-end integration tests exercising the full pipeline the paper describes:
generate streaming network data, ingest it into hierarchical hypersparse
matrices faster than the flat baselines, analyse the resulting traffic matrix,
and project the aggregate rate with the cluster model."""

import numpy as np
import pytest

import repro
from repro.analytics import degree_summary, supernode_report, total_traffic
from repro.baselines import FlatGraphBLASIngestor, HierarchicalD4MIngestor
from repro.core import HierarchicalMatrix
from repro.distributed import SuperCloudModel, build_figure2_table
from repro.workloads import IngestSession, paper_stream, synthetic_packets


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        assert repro.HierarchicalMatrix is HierarchicalMatrix
        for name in repro.__all__:
            assert hasattr(repro, name)


class TestEndToEndIngestAndAnalyze:
    def test_full_pipeline(self):
        """Stream the paper's workload (scaled down), verify correctness against
        the flat baseline, then run every analytic on the materialised matrix."""
        stream = list(paper_stream(total_entries=30_000, nbatches=30, seed=7))

        hier = HierarchicalMatrix(2**32, 2**32, "fp64", cuts=[2000, 20_000])
        flat = FlatGraphBLASIngestor(2**32, 2**32)
        hier_result = IngestSession(hier, "hier").run(stream)
        flat_result = IngestSession(flat, "flat").run(stream)

        # Identical logical matrices (linearity of the hierarchy).
        assert hier.materialize().isclose(flat.materialize())
        assert hier_result.total_updates == flat_result.total_updates == 30_000

        # Analytics run on the hierarchical matrix directly.
        summary = degree_summary(hier)
        assert summary["total_traffic"] == pytest.approx(30_000.0)
        report = supernode_report(hier, 5)
        assert len(report["top_sources"]) == 5

    def test_traffic_monitoring_scenario(self):
        """The motivating use case: build an origin-destination traffic matrix
        from synthetic packet windows and watch supernodes emerge."""
        H = HierarchicalMatrix(2**32, 2**32, cuts=[1000, 10_000])
        for batch in synthetic_packets(2_000, 5, supernode_fraction=0.2, seed=11):
            H.update(batch.sources, batch.destinations)
        assert H.stats.total_updates == 10_000
        snap = H.materialize()
        assert total_traffic(snap) == pytest.approx(10_000.0)
        report = supernode_report(snap, 3)
        assert report["top_source_share"] > 0.15

    def test_figure2_table_end_to_end(self):
        """Run both hierarchical systems on a small stream, then build the
        complete Figure 2 table with modelled scaling plus published curves.

        The runs are checked on their deterministic outputs; the table is fed
        fixed per-instance rates, so no assertion here reads a stopwatch."""
        hier = HierarchicalMatrix(2**32, 2**32, cuts=[2000, 20_000])
        hier_result = IngestSession(hier, "hg").run(
            paper_stream(total_entries=20_000, nbatches=20, seed=1)
        )
        assert hier_result.total_updates == hier.stats.total_updates == 20_000
        assert not hier.layers[0].has_pending  # the final wait() ran
        assert hier_result.metadata["cascades"] == [5, 0, 0]
        d4m = HierarchicalD4MIngestor(cuts=[500, 5000])
        d4m_result = IngestSession(d4m, "hd").run(
            paper_stream(total_entries=2_000, nbatches=5, seed=1)
        )
        assert d4m_result.total_updates == d4m.stats.total_updates == 2_000
        assert d4m_result.metadata["cascades"] == [2, 0, 0]

        rows = build_figure2_table(
            {
                "Hierarchical GraphBLAS (measured)": 1.0e6,
                "Hierarchical D4M (measured)": 2.0e4,
            },
            server_counts=(1, 64, 1100),
        )
        by_system = {}
        for row in rows:
            by_system.setdefault(row.system, {})[row.servers] = row.updates_per_second

        # Shape of Figure 2: GraphBLAS above D4M at every scale.
        for servers in (1, 64, 1100):
            assert (
                by_system["Hierarchical GraphBLAS (measured)"][servers]
                > by_system["Hierarchical D4M (measured)"][servers]
            )
        # And a million updates/s per instance scales into the billions at 1,100 nodes.
        assert by_system["Hierarchical GraphBLAS (measured)"][1100] > 1e9

    def test_memory_pressure_story(self):
        """The architectural claim: measured hierarchical ingest puts only a small
        fraction of element-writes into the slowest memory level."""
        hier = HierarchicalMatrix(2**32, 2**32, cuts=[500, 5000])
        IngestSession(hier, "h").run(paper_stream(total_entries=20_000, nbatches=40, seed=3))
        assert hier.stats.fast_memory_fraction > 0.5

    def test_headline_claims_shape(self):
        """Both headline numbers, at reduced scale: a single instance ingests
        the paper's stream completely, and the modelled 1,100-node aggregate
        lands within an order of magnitude of 75e9 when fed a per-instance
        rate of one million updates/s (a fixed figure, not a measurement)."""
        hier = HierarchicalMatrix(2**32, 2**32, cuts=[2**17, 2**20, 2**23])
        result = IngestSession(hier, "h").run(
            paper_stream(total_entries=100_000, nbatches=10, seed=0)
        )
        assert result.total_updates == hier.stats.total_updates == 100_000
        assert not hier.layers[0].has_pending
        # The stream collapses below the first cut, so nothing cascades.
        assert result.metadata["cascades"] == [0, 0, 0, 0]
        projection = SuperCloudModel().headline_projection(1.0e6)
        assert projection["aggregate_rate"] > 1e9
        assert 0.1 < projection["ratio_to_paper"] < 10
