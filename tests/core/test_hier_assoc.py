"""Tests for hierarchical D4M associative arrays."""

import numpy as np
import pytest

from repro.core import HierarchicalAssoc, GeometricCuts
from repro.d4m import Assoc


class TestConstruction:
    def test_defaults(self):
        H = HierarchicalAssoc()
        assert H.nlevels == 4
        assert H.layer_nnz == (0, 0, 0, 0)

    def test_explicit_cuts(self):
        H = HierarchicalAssoc(cuts=[5, 50])
        assert H.cuts == (5, 50)

    def test_policy(self):
        H = HierarchicalAssoc(policy=GeometricCuts(4, 4, 3))
        assert H.cuts == (4, 16)

    def test_cuts_and_policy_exclusive(self):
        with pytest.raises(ValueError):
            HierarchicalAssoc(cuts=[5], policy=GeometricCuts())


class TestUpdates:
    def test_update_and_get(self):
        H = HierarchicalAssoc(cuts=[2, 8])
        H.update(["a", "b"], ["x", "y"], [1.0, 1.0])
        H.update(["a"], ["x"], [2.0])
        assert H.get("a", "x") == 3.0
        assert H.get("zz", "zz") is None
        assert H.get("zz", "zz", default=0.0) == 0.0

    def test_cascade_on_overflow(self):
        H = HierarchicalAssoc(cuts=[2, 100])
        H.update(["a", "b", "c"], ["x", "y", "z"], [1, 1, 1])
        assert H.layer_nnz[0] == 0
        assert H.layer_nnz[1] == 3
        assert H.stats.cascades[0] == 1

    def test_update_assoc_object(self):
        H = HierarchicalAssoc(cuts=[10])
        H.update_assoc(Assoc(["k"], ["v"], [4.0]))
        assert H.get("k", "v") == 4.0

    def test_materialize_equals_flat_assoc(self):
        rng = np.random.default_rng(0)
        H = HierarchicalAssoc(cuts=[5, 20])
        flat = Assoc.empty()
        for _ in range(10):
            rows = [f"r{int(x)}" for x in rng.integers(0, 20, 8)]
            cols = [f"c{int(x)}" for x in rng.integers(0, 20, 8)]
            vals = np.ones(8)
            H.update(rows, cols, vals)
            batch = Assoc(rows, cols, vals)
            flat = flat + batch if flat.nnz else batch
        assert H.materialize() == flat

    def test_flush(self):
        H = HierarchicalAssoc(cuts=[3, 30])
        for i in range(6):
            H.update([f"r{i}", f"s{i}"], [f"c{i}", f"d{i}"], [1.0, 1.0])
        ref = H.materialize()
        top = H.flush()
        assert top == ref
        assert all(n == 0 for n in H.layer_nnz[:-1])

    def test_clear(self):
        H = HierarchicalAssoc(cuts=[3])
        H.update(["a"], ["b"], [1.0])
        H.clear()
        assert H.layer_nnz == (0, 0)
        assert H.stats.total_updates == 0

    def test_stats_track_updates(self):
        H = HierarchicalAssoc(cuts=[100])
        H.update(["a", "b", "a"], ["x", "y", "x"], [1, 1, 1])
        # Counted as submitted, duplicates included (as HierarchicalMatrix
        # counts); the batch Assoc collapses (a, x) before layer 1.
        assert H.stats.total_updates == 3
        assert H.layer_nnz[0] == 2

    def test_repr(self):
        assert "HierarchicalAssoc" in repr(HierarchicalAssoc(cuts=[2]))
