"""Tests for the published Figure 2 reference series."""

import pytest

from repro.baselines import (
    PAPER_HEADLINE_RATE,
    PAPER_HEADLINE_SERVERS,
    PublishedSeries,
    published_series,
)
from repro.distributed import build_figure2_table


class TestSeries:
    def test_all_figure2_systems_present(self):
        series = published_series()
        names = {s.name for s in series.values()}
        for expected in [
            "Hierarchical GraphBLAS (paper)",
            "Hierarchical D4M",
            "Accumulo D4M",
            "SciDB D4M",
            "Accumulo",
            "Oracle (TPC-C)",
            "CrateDB",
        ]:
            assert expected in names

    def test_headline_constants(self):
        assert PAPER_HEADLINE_RATE == 75_000_000_000
        assert PAPER_HEADLINE_SERVERS == 1100
        paper = published_series()["hierarchical_graphblas_paper"]
        assert paper.peak_rate == pytest.approx(7.5e10)

    def test_figure2_ordering_preserved(self):
        """The ordering of systems in Fig. 2: hierarchical GraphBLAS > hierarchical
        D4M > Accumulo D4M > the database systems."""
        s = published_series()
        assert s["hierarchical_graphblas_paper"].peak_rate > s["hierarchical_d4m"].peak_rate
        assert s["hierarchical_d4m"].peak_rate > s["accumulo_d4m"].peak_rate
        assert s["accumulo_d4m"].peak_rate > s["scidb_d4m"].peak_rate
        assert s["accumulo_d4m"].peak_rate > s["cratedb"].peak_rate
        assert s["cratedb"].peak_rate > s["oracle_tpcc"].peak_rate

    def test_rates_monotone_in_servers(self):
        for series in published_series().values():
            rates = list(series.rates)
            assert rates == sorted(rates)

    def test_rate_at_interpolates(self):
        paper = published_series()["hierarchical_graphblas_paper"]
        mid = paper.rate_at(100)
        assert paper.rate_at(8) < mid < paper.rate_at(1100)

    def test_rate_at_single_point_series_scales_linearly(self):
        single = PublishedSeries("x", (10,), (1e6,), "test")
        assert single.rate_at(20) == pytest.approx(2e6)

    def test_headline_magnitude_from_interpolation(self):
        paper = published_series()["hierarchical_graphblas_paper"]
        assert paper.rate_at(1100) == pytest.approx(7.5e10, rel=0.35)


class TestFigure2PublishedRows:
    def test_every_series_contributes(self):
        rows = build_figure2_table({}, server_counts=(1,))
        series = published_series()
        assert len({r.system for r in rows}) == len(series)
        assert all(r.source == "published" for r in rows)
        expected = {s.name: s.rate_at(1) for s in series.values()}
        assert {r.system: r.updates_per_second for r in rows} == expected
