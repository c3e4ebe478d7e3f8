"""Tests for the traffic-matrix analytics (degrees, supernodes, background models, windows)."""

import numpy as np
import pytest

from repro.analytics import (
    WindowedAnalyzer,
    anomaly_scores,
    degree_summary,
    fan_in,
    fan_out,
    gravity_model,
    in_degree,
    out_degree,
    residual_matrix,
    supernode_report,
    top_anomalies,
    top_destinations,
    top_sources,
    total_traffic,
    traffic_share,
)
from repro.core import HierarchicalMatrix
from repro.graphblas import Matrix
from repro.workloads import synthetic_packets


@pytest.fixture
def traffic_matrix():
    # Source 10 sends 6 packets to two destinations; source 20 sends 1.
    return Matrix.from_coo(
        [10, 10, 20],
        [100, 200, 100],
        [4.0, 2.0, 1.0],
        nrows=2**32,
        ncols=2**32,
    )


class TestDegrees:
    def test_out_degree_weighted(self, traffic_matrix):
        deg = out_degree(traffic_matrix)
        assert deg[10] == 6.0
        assert deg[20] == 1.0

    def test_out_degree_unweighted_is_fanout(self, traffic_matrix):
        assert fan_out(traffic_matrix)[10] == 2.0
        assert out_degree(traffic_matrix, weighted=False)[20] == 1.0

    def test_in_degree(self, traffic_matrix):
        assert in_degree(traffic_matrix)[100] == 5.0
        assert fan_in(traffic_matrix)[100] == 2.0

    def test_total_traffic(self, traffic_matrix):
        assert total_traffic(traffic_matrix) == 7.0

    def test_degree_summary_fields(self, traffic_matrix):
        s = degree_summary(traffic_matrix)
        assert s["nnz"] == 3
        assert s["total_traffic"] == 7.0
        assert s["active_sources"] == 2
        assert s["active_destinations"] == 2
        assert s["max_out_degree"] == 6.0
        assert s["max_in_degree"] == 5.0

    def test_accepts_hierarchical_matrix(self):
        H = HierarchicalMatrix(cuts=[2, 10])
        H.update([1, 2, 3], [4, 5, 6], [1.0, 2.0, 3.0])
        assert total_traffic(H) == 6.0
        assert out_degree(H)[3] == 3.0

    def test_empty_matrix(self):
        empty = Matrix("fp64", 100, 100)
        s = degree_summary(empty)
        assert s["nnz"] == 0 and s["max_out_degree"] == 0.0


class TestSupernodes:
    def test_top_sources_ordering(self, traffic_matrix):
        top = top_sources(traffic_matrix, 2)
        assert top[0].identifier == 10
        assert top[0].traffic == 6.0
        assert top[0].fan == 2
        assert top[0].side == "source"
        assert top[1].identifier == 20

    def test_top_destinations(self, traffic_matrix):
        top = top_destinations(traffic_matrix, 1)
        assert top[0].identifier == 100
        assert top[0].traffic == 5.0

    def test_traffic_share(self, traffic_matrix):
        src_share, dst_share = traffic_share(traffic_matrix, 1)
        assert src_share == pytest.approx(6.0 / 7.0)
        assert dst_share == pytest.approx(5.0 / 7.0)

    def test_empty_matrix_share(self):
        assert traffic_share(Matrix("fp64", 10, 10)) == (0.0, 0.0)
        assert top_sources(Matrix("fp64", 10, 10)) == []

    def test_report_structure(self, traffic_matrix):
        report = supernode_report(traffic_matrix, 2)
        assert len(report["top_sources"]) == 2
        assert 0 < report["top_source_share"] <= 1.0

    def test_powerlaw_traffic_is_concentrated(self):
        H = HierarchicalMatrix(cuts=[10_000])
        for batch in synthetic_packets(5000, 2, alpha=1.3, seed=0):
            H.update(batch.sources, batch.destinations, 1.0)
        src_share, _ = traffic_share(H, 10)
        assert src_share > 0.2


class TestBackgroundModel:
    def test_gravity_model_preserves_marginals_shape(self, traffic_matrix):
        G = gravity_model(traffic_matrix)
        assert G.nvals == traffic_matrix.nvals
        # Rank-1 model: expected(10,100) = 6*5/7
        assert G[10, 100] == pytest.approx(30.0 / 7.0)

    def test_gravity_model_total_leq_observed_total(self, traffic_matrix):
        G = gravity_model(traffic_matrix)
        assert float(G.reduce_scalar()) <= total_traffic(traffic_matrix) + 1e-9

    def test_residuals_sum_structure(self, traffic_matrix):
        R = residual_matrix(traffic_matrix)
        assert R[10, 100] == pytest.approx(4.0 - 30.0 / 7.0)

    def test_anomaly_scores_flag_unexpected_pair(self):
        # Traffic that exactly follows the gravity (product-form) model ...
        rows, cols, vals = [], [], []
        for i in range(5):
            for j in range(5):
                rows.append(i)
                cols.append(j)
                vals.append(float((i + 1) * (j + 1)))
        # ... plus one pair carrying far more than the model predicts.
        vals[2 * 5 + 3] += 20.0  # pair (2, 3)
        M = Matrix.from_coo(rows, cols, vals, nrows=100, ncols=100)
        top = top_anomalies(M, 1)
        assert top[0][:2] == (2, 3)
        scores = anomaly_scores(M)
        assert scores[2, 3] > 0

    def test_empty_matrix(self):
        empty = Matrix("fp64", 10, 10)
        assert gravity_model(empty).nvals == 0
        assert anomaly_scores(empty).nvals == 0
        assert top_anomalies(empty) == []

    def test_accepts_hierarchical(self):
        H = HierarchicalMatrix(cuts=[2])
        H.update([1, 2], [3, 4], [1.0, 2.0])
        assert gravity_model(H).nvals == 2


class TestWindowedAnalyzer:
    def test_snapshots_every_interval(self):
        analyzer = WindowedAnalyzer(cuts=[500, 5000], analysis_interval=2, top_k=3)
        snaps = []
        for batch in synthetic_packets(300, 6, seed=1):
            snap = analyzer.ingest(batch)
            if snap is not None:
                snaps.append(snap)
        assert len(snaps) == 3
        assert analyzer.packets_ingested == 1800
        assert snaps[-1].packets_ingested == 1800
        assert len(snaps[-1].supernodes["top_sources"]) <= 3
        assert snaps[0].summary["total_traffic"] == pytest.approx(600.0)

    def test_explicit_analyze(self):
        analyzer = WindowedAnalyzer(cuts=[100], analysis_interval=100)
        for batch in synthetic_packets(100, 2, seed=2):
            analyzer.ingest(batch)
        snap = analyzer.analyze()
        assert snap.packets_ingested == 200
        assert len(analyzer.snapshots) == 1

    def test_streaming_continues_after_analysis(self):
        analyzer = WindowedAnalyzer(cuts=[50], analysis_interval=1)
        batches = list(synthetic_packets(100, 3, seed=3))
        for batch in batches:
            analyzer.ingest(batch)
        totals = [s.summary["total_traffic"] for s in analyzer.snapshots]
        assert totals == sorted(totals)
        assert totals[-1] == pytest.approx(300.0)

    def test_analyze_leaves_the_pending_window_pending(self):
        # Snapshots come from the tracker: no materialize, no forced flush.
        analyzer = WindowedAnalyzer(cuts=[10_000, 100_000], analysis_interval=2, top_k=3)
        for batch in synthetic_packets(500, 3, seed=5):
            analyzer.ingest(batch)
        H = analyzer.matrix
        assert H.layers[0].has_pending
        snap = analyzer.analyze()
        assert H.layers[0].has_pending  # check before the flushing reads below
        assert snap.window == 2 and snap.packets_ingested == 1500
        assert snap.summary == degree_summary(H, materialized=True)
        assert snap.supernodes == supernode_report(H, 3, materialized=True)

    def test_analyze_without_a_64_bit_split_materializes_once(self, monkeypatch):
        # A 2^64 shape has no packed split, so the tracker serves no fan
        # queries: one materialised matrix must serve every report.
        analyzer = WindowedAnalyzer(
            cuts=[10_000], analysis_interval=100, top_k=3, nrows=2**64, ncols=2**64
        )
        for batch in synthetic_packets(200, 2, seed=6):
            analyzer.ingest(batch)
        H = analyzer.matrix
        assert not H.incremental.fan_supported
        calls = []
        materialize = HierarchicalMatrix.materialize
        monkeypatch.setattr(
            HierarchicalMatrix,
            "materialize",
            lambda self: calls.append(1) or materialize(self),
        )
        snap = analyzer.analyze()
        assert len(calls) == 1
        monkeypatch.undo()
        assert snap.summary == degree_summary(H, materialized=True)
        assert snap.supernodes == supernode_report(H, 3, materialized=True)
