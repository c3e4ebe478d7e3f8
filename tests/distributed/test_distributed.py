"""Tests for the SuperCloud model and Figure 2 assembly."""

import numpy as np
import pytest

from repro.distributed import (
    ClusterConfig,
    Figure2Row,
    SuperCloudModel,
    build_figure2_table,
    format_table,
)


class TestClusterConfig:
    def test_paper_configuration(self):
        cfg = ClusterConfig.paper_configuration()
        assert cfg.max_nodes == 1100
        assert cfg.instances_for(1100) == 30800  # ~31,000 instances, as in the abstract
        assert abs(cfg.instances_for(1100) - 31_000) / 31_000 < 0.01

    def test_instances_scale_linearly(self):
        cfg = ClusterConfig(processes_per_node=10)
        assert cfg.instances_for(7) == 70


class TestSuperCloudModel:
    def test_aggregate_rate_point(self):
        model = SuperCloudModel()
        point = model.aggregate_rate(1.0e6, 10)
        assert point.nodes == 10
        assert point.instances == 280
        assert 0 < point.aggregate_rate <= 280 * 1.0e6
        assert 0 < point.efficiency <= 1.0

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            SuperCloudModel().aggregate_rate(1e6, 0)

    def test_scaling_is_nearly_linear(self):
        model = SuperCloudModel()
        series = model.scaling_series(1.0e6, node_counts=(1, 10, 100, 1100))
        rates = [p.aggregate_rate for p in series]
        assert rates == sorted(rates)
        # Weak scaling: 1100 nodes deliver at least 500x one node's rate.
        assert rates[-1] / rates[0] > 500

    def test_efficiency_decreases_with_scale(self):
        model = SuperCloudModel()
        e1 = model.aggregate_rate(1e6, 1).efficiency
        e1100 = model.aggregate_rate(1e6, 1100).efficiency
        assert e1100 <= e1

    def test_headline_projection_reaches_tens_of_billions(self):
        """Headline B shape check: a >1M updates/s instance rate projects to
        tens of billions of aggregate updates/s at the paper's scale."""
        model = SuperCloudModel()
        proj = model.headline_projection(2.4e6)
        assert proj["aggregate_rate"] > 5e10
        assert proj["nodes"] == 1100
        assert 0.5 < proj["ratio_to_paper"] < 2.0

    def test_nodes_needed_for(self):
        model = SuperCloudModel()
        n = model.nodes_needed_for(1e9, per_instance_rate=1.2e6)
        assert 1 <= n <= 1100
        assert model.aggregate_rate(1.2e6, n).aggregate_rate >= 1e9
        with pytest.raises(ValueError):
            model.nodes_needed_for(1e15, per_instance_rate=1e6)

    def test_scaling_point_as_dict(self):
        point = SuperCloudModel().aggregate_rate(1e6, 4)
        d = point.as_dict()
        assert d["nodes"] == 4 and "aggregate_rate" in d


class TestFigure2Assembly:
    def test_table_contains_measured_and_published(self):
        rows = build_figure2_table({"Hierarchical GraphBLAS (measured)": 1.5e6}, server_counts=(1, 1100))
        systems = {r.system for r in rows}
        assert "Hierarchical GraphBLAS (measured)" in systems
        assert "Hierarchical D4M" in systems
        assert "Accumulo D4M" in systems
        measured = [r for r in rows if r.source == "measured+model"]
        assert len(measured) == 2

    def test_database_systems_not_extrapolated_beyond_publication(self):
        rows = build_figure2_table({}, server_counts=(1, 1100))
        cratedb_servers = [r.servers for r in rows if r.system == "CrateDB"]
        assert 1100 not in cratedb_servers

    def test_measured_series_scales_with_servers(self):
        rows = build_figure2_table({"X": 1e6}, server_counts=(1, 8, 64), include_published=False)
        rates = [r.updates_per_second for r in sorted(rows, key=lambda r: r.servers)]
        assert rates == sorted(rates)

    def test_format_table(self):
        rows = build_figure2_table({"X": 1e6}, server_counts=(1,), include_published=False)
        text = format_table(rows)
        assert "system" in text and "X" in text

    def test_row_as_dict(self):
        row = Figure2Row("X", 4, 1e6, "published")
        assert row.as_dict()["servers"] == 4
