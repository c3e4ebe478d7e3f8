"""Tests for cut policies."""

import pytest

from repro.core import FixedCuts, GeometricCuts, default_policy


class TestFixedCuts:
    def test_basic(self):
        p = FixedCuts([10, 100])
        assert p.initial_cuts() == [10, 100]
        assert p.nlevels == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedCuts([])
        with pytest.raises(ValueError):
            FixedCuts([0, 10])
        with pytest.raises(ValueError):
            FixedCuts([-5])
        with pytest.raises(ValueError):
            FixedCuts([100, 10])

    def test_equal_cuts_allowed(self):
        assert FixedCuts([10, 10]).initial_cuts() == [10, 10]

    def test_describe(self):
        assert "FixedCuts" in FixedCuts([4]).describe()


class TestGeometricCuts:
    def test_growth(self):
        p = GeometricCuts(first_cut=10, ratio=10, nlevels_total=4)
        assert p.initial_cuts() == [10, 100, 1000]
        assert p.nlevels == 4

    def test_default_matches_library_default(self):
        assert default_policy().initial_cuts() == [2**17, 2**20, 2**23]

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricCuts(first_cut=0)
        with pytest.raises(ValueError):
            GeometricCuts(ratio=0)
        with pytest.raises(ValueError):
            GeometricCuts(nlevels_total=1)

    def test_ratio_one_gives_constant_cuts(self):
        assert GeometricCuts(5, 1, 3).initial_cuts() == [5, 5]
