"""Tests for the memory-hierarchy model and the ingest cost model."""

import numpy as np
import pytest

from repro.core import HierarchicalMatrix
from repro.graphblas import Matrix, Vector
from repro.memory import BYTES_PER_ENTRY, CostModel, MemoryHierarchy, MemoryLevel, default_hierarchy


class TestMemoryHierarchy:
    def test_default_levels(self):
        h = default_hierarchy()
        assert [lvl.name for lvl in h] == ["L1", "L2", "L3", "DRAM"]
        assert len(h) == 4
        assert h.fastest.name == "L1"
        assert h.slowest.name == "DRAM"

    def test_level_for_working_set(self):
        h = default_hierarchy()
        assert h.level_for(16 * 1024).name == "L1"
        assert h.level_for(512 * 1024).name == "L2"
        assert h.level_for(16 * 2**20).name == "L3"
        assert h.level_for(10 * 2**30).name == "DRAM"
        assert h.level_for(10**13).name == "DRAM"  # bigger than everything -> slowest

    def test_level_index(self):
        h = default_hierarchy()
        assert h.level_index_for(1024) == 0
        assert h.level_index_for(10**13) == 3

    def test_bandwidth_and_latency_ordering(self):
        h = default_hierarchy()
        bws = [lvl.bandwidth_gbps for lvl in h]
        lats = [lvl.latency_ns for lvl in h]
        assert bws == sorted(bws, reverse=True)
        assert lats == sorted(lats)

    def test_transfer_seconds(self):
        lvl = MemoryLevel("X", 1024, 1.0, 10.0)
        assert lvl.transfer_seconds(2**30) == pytest.approx(1.0)

    def test_access_seconds_random_vs_streaming(self):
        h = default_hierarchy()
        stream = h.access_seconds(10 * 2**30, 2**20, random=False)
        rand = h.access_seconds(10 * 2**30, 2**20, random=True)
        assert rand > stream

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryHierarchy([])
        with pytest.raises(ValueError):
            MemoryHierarchy(
                [MemoryLevel("big", 100, 1, 1), MemoryLevel("small", 10, 1, 1)]
            )

    def test_getitem(self):
        h = default_hierarchy()
        assert h[0].name == "L1"
        assert h.levels[3].name == "DRAM"


class TestCostModel:
    def test_flat_write_counts_quadratic(self):
        cm = CostModel()
        small = cm.flat_write_counts(10_000, 1000)
        large = cm.flat_write_counts(100_000, 1000)
        # 10x more updates -> ~100x more rewritten elements for the flat strategy.
        assert large > 50 * small

    def test_hierarchical_write_counts_structure(self):
        cm = CostModel()
        writes = cm.hierarchical_write_counts(1_000_000, 10_000, [10_000, 100_000])
        assert len(writes) == 3
        assert writes[0] > 0
        assert writes[-1] >= 0

    def test_hierarchy_beats_flat(self):
        cm = CostModel()
        speedup = cm.speedup_estimate(10_000_000, 100_000, [2**17, 2**20, 2**23])
        assert speedup > 1.0

    def test_estimates_have_expected_slow_fractions(self):
        cm = CostModel()
        flat = cm.estimate_flat(10_000_000, 100_000)
        hier = cm.estimate_hierarchical(10_000_000, 100_000, [2**17, 2**20, 2**23])
        assert flat.slow_fraction == 1.0  # flat working set always lives in DRAM
        assert hier.slow_fraction < flat.slow_fraction
        assert hier.estimated_seconds < flat.estimated_seconds
        assert flat.strategy == "flat"
        assert hier.strategy == "hierarchical"

    def test_bytes_accounting(self):
        cm = CostModel()
        est = cm.estimate_flat(1_000_000, 100_000)
        assert sum(est.bytes_per_level) == sum(est.writes_per_level) * BYTES_PER_ENTRY
        assert "writes_per_level" in est.as_dict()

    def test_estimate_from_measured_stats(self):
        H = HierarchicalMatrix(cuts=[100, 1000])
        rng = np.random.default_rng(0)
        for _ in range(10):
            rows = rng.integers(0, 10**6, 200).astype(np.uint64)
            H.update(rows, rows, 1.0)
        cm = CostModel()
        est = cm.estimate_from_stats(H.stats, H.cuts, total_distinct=H.nvals)
        assert est.strategy == "hierarchical(measured)"
        assert sum(est.writes_per_level) == sum(H.stats.element_writes)
        assert est.slow_fraction <= 1.0

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            CostModel().flat_write_counts(100, 0)

    def test_custom_hierarchy(self):
        tiny = MemoryHierarchy([MemoryLevel("fast", 1000, 100.0, 1.0), MemoryLevel("slow", 10**12, 1.0, 100.0)])
        cm = CostModel(tiny, bytes_per_entry=10)
        est = cm.estimate_hierarchical(10_000, 100, [50])
        assert len(est.writes_per_level) == 2


class TestPlacementLevel:
    """Placement follows resident capacity; traffic follows live bytes."""

    def test_capacity_drives_placement(self):
        h = default_hierarchy()
        # 1 KiB of live data in an arena that preallocated 16 MiB: the
        # container no longer fits L1/L2, whatever its fill level.
        assert h.placement_level(1024, 16 * 2**20).name == "L3"
        assert h.placement_level(1024).name == "L1"  # no preallocation

    def test_used_floor_when_capacity_unreported(self):
        h = default_hierarchy()
        # A degenerate report (capacity < used) must not improve placement.
        assert h.placement_level(16 * 2**20, 1024).name == "L3"

    def test_cost_model_placement_for_breakdown(self):
        cm = CostModel()
        spilled = {
            "stored_bytes": 2048,
            "pending_used_bytes": 0,
            "pending_capacity_bytes": 64 * 2**20,
        }
        assert cm.placement_for(spilled).name == "DRAM"
        compact = {"stored_bytes": 2048, "pending_used_bytes": 0, "pending_capacity_bytes": 0}
        assert cm.placement_for(compact).name == "L1"

    def test_matrix_breakdown_separates_used_and_capacity(self):
        m = Matrix("fp64", 2**32, 2**32)
        m.build(np.arange(100, dtype=np.uint64), np.arange(100, dtype=np.uint64),
                np.ones(100), lazy=True)
        b = m.memory_breakdown
        assert b["pending_used_bytes"] == 100 * 2 * 8  # one key + one value-bits column
        assert b["pending_capacity_bytes"] >= b["pending_used_bytes"]
        assert m.memory_usage == b["stored_bytes"] + b["pending_capacity_bytes"]
        m.wait()
        after = m.memory_breakdown
        assert after["pending_used_bytes"] == 0
        assert after["stored_bytes"] > 0
        # A flushed arena keeps its capacity for the next window ...
        assert after["pending_capacity_bytes"] == b["pending_capacity_bytes"]
        # ... and clear() releases it.
        m.clear()
        assert m.memory_breakdown["pending_capacity_bytes"] == 0

    def test_vector_breakdown_separates_used_and_capacity(self):
        v = Vector("fp64", 2**32)
        v.build(np.arange(50, dtype=np.uint64), np.ones(50), lazy=True)
        b = v.memory_breakdown
        assert b["pending_used_bytes"] == 50 * 2 * 8
        assert b["pending_capacity_bytes"] >= b["pending_used_bytes"]
        assert v.memory_usage == b["stored_bytes"] + b["pending_capacity_bytes"]

    def test_hierarchical_breakdown_sums_layers(self):
        H = HierarchicalMatrix(2**32, 2**32, cuts=[100, 1000])
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 10**6, 300).astype(np.uint64)
        H.update(rows, rows, 1.0)
        b = H.memory_breakdown
        assert set(b) == {"stored_bytes", "pending_used_bytes", "pending_capacity_bytes"}
        for key in b:
            assert b[key] == sum(layer.memory_breakdown[key] for layer in H.layers)
        assert H.memory_usage == b["stored_bytes"] + b["pending_capacity_bytes"]
