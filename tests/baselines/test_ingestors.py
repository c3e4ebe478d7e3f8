"""Tests for the flat-GraphBLAS and D4M baseline ingestors."""

import numpy as np
import pytest

from repro.baselines import FlatD4MIngestor, FlatGraphBLASIngestor, HierarchicalD4MIngestor
from repro.core import HierarchicalMatrix
from repro.workloads import IngestSession, paper_stream


def batches(rng, n=5, size=40, space=500):
    out = []
    for _ in range(n):
        out.append(
            (
                rng.integers(0, space, size).astype(np.uint64),
                rng.integers(0, space, size).astype(np.uint64),
                np.ones(size),
            )
        )
    return out


class TestFlatGraphBLAS:
    def test_accumulates_correctly(self, rng):
        flat = FlatGraphBLASIngestor(2**32, 2**32)
        hier = HierarchicalMatrix(nrows=2**32, ncols=2**32, cuts=[50, 500])
        for rows, cols, vals in batches(rng):
            flat.update(rows, cols, vals)
            hier.update(rows, cols, vals)
        assert flat.materialize().isclose(hier.materialize())
        assert flat.total_updates == 200

    def test_element_writes_grow_superlinearly(self, rng):
        flat = FlatGraphBLASIngestor(2**32, 2**32)
        writes = []
        for rows, cols, vals in batches(rng, n=6, space=10**6):
            flat.update(rows, cols, vals)
            writes.append(flat.element_writes)
        increments = np.diff([0] + writes)
        assert increments[-1] > increments[0]  # each merge touches more than the last

    def test_clear(self, rng):
        flat = FlatGraphBLASIngestor()
        flat.update([1], [2], [3.0])
        flat.clear()
        assert flat.total_updates == 0
        assert flat.matrix.nvals == 0

    def test_shape(self):
        assert FlatGraphBLASIngestor(10, 20).shape == (10, 20)


class TestFlatD4M:
    def test_accumulates(self):
        d4m = FlatD4MIngestor()
        d4m.update([1, 2], [3, 4], [1.0, 2.0])
        d4m.update([1], [3], [5.0])
        assoc = d4m.materialize()
        assert assoc.nnz == 2
        key = f"{1:020d}"
        col = f"{3:020d}"
        assert assoc.getval(key, col) == 6.0
        assert d4m.total_updates == 3

    def test_scalar_values(self):
        d4m = FlatD4MIngestor()
        d4m.update([1, 2], [3, 4], 1)
        assert d4m.materialize().nnz == 2

    def test_clear(self):
        d4m = FlatD4MIngestor()
        d4m.update([1], [1], [1.0])
        d4m.clear()
        assert d4m.materialize().nnz == 0


class TestHierarchicalD4M:
    def test_matches_flat_d4m(self, rng):
        hier = HierarchicalD4MIngestor(cuts=[20, 200])
        flat = FlatD4MIngestor()
        for rows, cols, vals in batches(rng, n=4, size=20, space=50):
            hier.update(rows, cols, vals)
            flat.update(rows, cols, vals)
        assert hier.materialize() == flat.materialize()

    def test_stats_exposed(self):
        hier = HierarchicalD4MIngestor(cuts=[2, 20])
        hier.update([1, 2, 3], [4, 5, 6], [1, 1, 1])
        assert hier.stats.total_updates == 3
        assert hier.stats.cascades[0] >= 1
        assert hier.hierarchy.nlevels == 3

    def test_clear(self):
        hier = HierarchicalD4MIngestor(cuts=[10])
        hier.update([1], [2], [1.0])
        hier.clear()
        assert hier.total_updates == 0
        assert hier.materialize().nnz == 0


class TestRelativePerformanceShape:
    def test_hierarchical_does_less_work_than_flat_graphblas(self, rng):
        """Shape check for Fig. 2: as the accumulated state grows, the flat
        ingestor's per-batch element traffic keeps growing while the
        hierarchy's stays bounded by the cuts."""
        flat = FlatGraphBLASIngestor(2**32, 2**32)
        hier = HierarchicalMatrix(nrows=2**32, ncols=2**32, cuts=[100, 1000])
        data = batches(rng, n=25, size=100, space=10**7)
        for rows, cols, vals in data:
            flat.update(rows, cols, vals)
            hier.update(rows, cols, vals)
        assert sum(hier.stats.element_writes) < flat.element_writes


class TestSlowMemoryWrites:
    """The paper's memory claim on its own stream shape: the hierarchy keeps
    most element-writes in the cut-bounded layers, and writes far fewer
    elements into the unbounded last layer than the flat matrix rewrites."""

    @pytest.fixture(scope="class")
    def flat(self):
        flat = FlatGraphBLASIngestor(2**32, 2**32)
        IngestSession(flat, "flat").run(
            paper_stream(total_entries=100_000, nbatches=100, seed=0)
        )
        return flat

    @pytest.mark.parametrize(
        "cuts, last_layer_written",
        # 100k updates never overflow a 200k third layer, so the last layer
        # stays empty there; a 20k second layer overflows, which makes the
        # bound a real check on last-layer writes.
        [([2_000, 20_000, 200_000], False), ([2_000, 20_000], True)],
    )
    def test_slow_writes_below_half_of_flat(self, flat, cuts, last_layer_written):
        hier = HierarchicalMatrix(2**32, 2**32, cuts=cuts)
        IngestSession(hier, "hier").run(
            paper_stream(total_entries=100_000, nbatches=100, seed=0)
        )
        assert hier.stats.fast_memory_fraction > 0.5
        assert hier.stats.slow_memory_writes < flat.element_writes / 2
        assert (hier.stats.slow_memory_writes > 0) == last_layer_written


class TestSystemsAgreeOnPaperStream:
    """The four systems the single-instance rate compares ingest the same
    content: a rate is only comparable across systems that compute the
    same matrix.  The D4M systems see a shorter stream (string keys)."""

    N_GRAPHBLAS = 50_000
    N_D4M = 5_000

    @staticmethod
    def ingest(system, total, nbatches):
        result = IngestSession(system, "agree").run(
            paper_stream(total_entries=total, nbatches=nbatches, seed=0)
        )
        assert result.total_updates == total
        return system.materialize()

    @staticmethod
    def as_dict(assoc):
        rows, cols, vals = assoc.find()
        return {(int(r), int(c)): v for r, c, v in zip(rows, cols, vals)}

    def test_hierarchical_graphblas_equals_flat(self):
        hier = self.ingest(
            HierarchicalMatrix(2**32, 2**32, cuts=[4_096, 32_768, 262_144]),
            self.N_GRAPHBLAS,
            50,
        )
        flat = self.ingest(FlatGraphBLASIngestor(2**32, 2**32), self.N_GRAPHBLAS, 50)
        assert hier.isequal(flat)

    def test_hierarchical_d4m_equals_flat(self):
        hier = self.ingest(
            HierarchicalD4MIngestor(cuts=[1_000, 10_000, 100_000]), self.N_D4M, 10
        )
        flat = self.ingest(FlatD4MIngestor(), self.N_D4M, 10)
        assert hier == flat

    def test_d4m_equals_graphblas(self):
        d4m = self.ingest(FlatD4MIngestor(), self.N_D4M, 10)
        graphblas = self.ingest(
            HierarchicalMatrix(2**32, 2**32, cuts=[1_000, 10_000]), self.N_D4M, 10
        )
        rows, cols, vals = graphblas.extract_tuples()
        expected = {(int(r), int(c)): v for r, c, v in zip(rows, cols, vals)}
        assert self.as_dict(d4m) == expected
