"""Tests for the sharded streaming engine and the PR-2 measurement bugfixes.

Covers the four regression fixes (remainder batch, timed final flush, scalar
hierarchical update, extract with duplicate selections) plus the
sharded-equivalence property suite: a :class:`ShardedHierarchicalMatrix` fed a
random stream must materialize/get/reduce bit-identically to a single flat
:class:`HierarchicalMatrix` fed the same stream, across shard counts,
partition strategies, and both coordinate engines.
"""

import time

import numpy as np
import pytest

from repro.core import HierarchicalMatrix
from repro.distributed import (
    ShardRouter,
    ShardWorkerPool,
    ShardedHierarchicalMatrix,
    WorkerCrash,
    stream_powerlaw,
)
from repro.graphblas import Matrix, binary, coords
from repro.workloads import synthetic_packets

from ..conftest import from_array, to_array

CUTS = [500, 5_000]


def random_stream(seed, nbatches=8, batch=400, space=2 ** 18):
    """Random integer-valued batches with plenty of duplicate coordinates.

    Values are small integers (exact in fp64), so any grouping of the
    additions yields bit-identical sums and the sharded-vs-flat comparison is
    exact rather than tolerance-based.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(nbatches):
        rows = rng.integers(0, space, batch, dtype=np.uint64)
        cols = rng.integers(0, space, batch, dtype=np.uint64)
        vals = rng.integers(1, 8, batch).astype(np.float64)
        out.append((rows, cols, vals))
    return out


# --------------------------------------------------------------------------- #
# satellite regression tests
# --------------------------------------------------------------------------- #


class TestRemainderBatchFix:
    def test_remainder_batch_streams_exactly(self):
        """25k updates at batch 10k used to stream only 20k."""
        H = HierarchicalMatrix(cuts=CUTS)
        done, _ = stream_powerlaw(H, 0, 25_000, 10_000, seed=1)
        assert done == H.stats.total_updates == 25_000

    def test_small_request_not_rounded_up(self):
        """total < batch_size used to stream a full batch *more* than asked."""
        H = HierarchicalMatrix(cuts=CUTS)
        done, _ = stream_powerlaw(H, 0, 3_000, 10_000, seed=1)
        assert done == H.stats.total_updates == 3_000

    def test_exact_multiple_unchanged(self):
        H = HierarchicalMatrix(cuts=CUTS)
        done, _ = stream_powerlaw(H, 0, 20_000, 5_000, seed=1)
        assert done == H.stats.total_updates == 20_000


class TestTimedFinalFlushFix:
    def test_final_flush_inside_timed_section(self, monkeypatch):
        """The deferred layer-1 flush must be paid by the measured elapsed time."""
        original_wait = HierarchicalMatrix.wait

        def slow_wait(self):
            result = original_wait(self)
            time.sleep(0.05)  # detectable only if wait() runs inside the timer
            return result

        monkeypatch.setattr(HierarchicalMatrix, "wait", slow_wait)
        matrix = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=[10 ** 9])
        done, elapsed = stream_powerlaw(matrix, 0, 2_000, 1_000, seed=3)
        assert done == 2_000
        assert elapsed >= 0.05

    def test_no_pending_left_after_measured_stream(self):
        """With huge cuts everything stays pending unless the flush is forced."""
        matrix = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=[10 ** 9])
        stream_powerlaw(matrix, 0, 5_000, 1_000, seed=3)
        assert not matrix.layers[0].has_pending

    def test_hierarchical_wait_is_noop_when_eager(self):
        matrix = HierarchicalMatrix(
            2 ** 32, 2 ** 32, cuts=CUTS, accum=binary.minus
        )
        matrix.update([1, 2], [3, 4], [1.0, 1.0])
        assert not matrix.layers[0].has_pending
        assert matrix.wait() is matrix
        assert matrix.get(1, 3) == 1.0

    def test_wait_triggers_cascade_when_over_cut(self):
        matrix = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=[4, 1000])
        rows = np.arange(10, dtype=np.uint64)
        matrix.update(rows, rows + 1, np.ones(10))
        matrix.wait()
        assert matrix.layer_nvals[0] <= 4
        assert matrix.nvals == 10


class TestScalarUpdateFix:
    def test_scalar_coordinates(self):
        """H.update(5, 6) used to raise TypeError in batch-size counting."""
        H = HierarchicalMatrix(cuts=[4, 16])
        H.update(5, 6)
        assert H.get(5, 6) == 1.0

    def test_scalar_with_value_accumulates(self):
        H = HierarchicalMatrix(cuts=[4, 16])
        H.update(5, 6, 2.0)
        H.update(5, 6, 3.0)
        assert H.get(5, 6) == 5.0

    def test_zero_d_arrays(self):
        H = HierarchicalMatrix(cuts=[4, 16])
        H.update(np.uint64(7), np.uint64(8), np.float64(1.5))
        assert H.get(7, 8) == 1.5

    def test_stats_count_scalar_as_one(self):
        H = HierarchicalMatrix(cuts=[4, 16])
        H.update(1, 2)
        H.update([3, 4], [5, 6])
        assert H.stats.total_updates == 3


class TestExtractDuplicateIndicesFix:
    @pytest.fixture()
    def dense(self):
        return np.arange(1.0, 13.0).reshape(3, 4)

    @pytest.fixture()
    def matrix(self, dense):
        return from_array(dense)

    def test_duplicate_row_selection_replicates(self, matrix):
        """M.extract([1, 1], [1]) must have 2 entries (GraphBLAS semantics)."""
        sub = matrix.extract([1, 1], [1])
        assert sub.nvals == 2
        assert sub[0, 0] == sub[1, 0] == matrix[1, 1]

    @pytest.mark.parametrize(
        "rsel,csel",
        [
            ([1, 1], [1]),
            ([0, 2, 0], [3, 1]),
            ([2, 2, 2], [0, 0]),
            ([0, 1], [1, 2]),
            ([1], [2]),
        ],
    )
    def test_matches_dense_fancy_indexing(self, matrix, dense, rsel, csel):
        sub = matrix.extract(rsel, csel)
        assert np.array_equal(to_array(sub), dense[np.ix_(rsel, csel)])

    def test_duplicate_rows_all_columns(self, matrix, dense):
        sub = matrix.extract([1, 1])
        assert sub.nvals == 8
        assert np.array_equal(to_array(sub), dense[[1, 1], :])

    def test_reindex_false_keeps_set_semantics(self, matrix):
        """Original coordinates are preserved, so duplicates cannot replicate."""
        sub = matrix.extract([1, 1], [1], reindex=False)
        assert sub.nvals == 1


# --------------------------------------------------------------------------- #
# shard routing
# --------------------------------------------------------------------------- #


class TestShardRouter:
    def test_routing_is_deterministic(self):
        router = ShardRouter(4, nrows=2 ** 32, ncols=2 ** 32)
        rows = np.arange(1000, dtype=np.uint64) * 977
        cols = np.arange(1000, dtype=np.uint64) * 131
        assert np.array_equal(router.shard_of(rows, cols), router.shard_of(rows, cols))

    def test_routing_independent_of_packing_toggle(self):
        router = ShardRouter(3, nrows=2 ** 32, ncols=2 ** 32)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 2 ** 32, 500, dtype=np.uint64)
        cols = rng.integers(0, 2 ** 32, 500, dtype=np.uint64)
        packed = router.shard_of(rows, cols)
        with coords.packing_disabled():
            fallback = router.shard_of(rows, cols)
        assert np.array_equal(packed, fallback)

    def test_hash_partition_balances(self):
        router = ShardRouter(4, nrows=2 ** 32, ncols=2 ** 32, partition="hash")
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 2 ** 32, 8_000, dtype=np.uint64)
        cols = rng.integers(0, 2 ** 32, 8_000, dtype=np.uint64)
        counts = np.bincount(router.shard_of(rows, cols), minlength=4)
        assert counts.min() > 0.5 * counts.mean()

    def test_range_partition_is_contiguous_in_rows(self):
        """Uniform rows land in contiguous, ordered slabs."""
        router = ShardRouter(4, nrows=2 ** 32, ncols=2 ** 32, partition="range")
        rows = np.linspace(0, 2 ** 32 - 1, 10_000).astype(np.uint64)
        cols = np.zeros(10_000, dtype=np.uint64)
        shard = router.shard_of(rows, cols)
        assert np.all(np.diff(shard) >= 0)
        assert set(np.unique(shard)) == {0, 1, 2, 3}

    def test_single_shard_always_zero(self):
        router = ShardRouter(1)
        rows = np.arange(10, dtype=np.uint64)
        assert not router.shard_of(rows, rows).any()

    def test_ipv6_shape_falls_back(self):
        """Full 64-bit shapes have no packed split but still route."""
        router = ShardRouter(2, nrows=2 ** 64, ncols=2 ** 64)
        assert router.spec is None
        rows = np.array([0, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
        shard = router.shard_of(rows, rows)
        assert shard.shape == (3,) and set(shard) <= {0, 1}

    def test_range_partition_unpackable_shape_uses_all_shards(self):
        """A 2^33 x 2^33 shape (no 64-bit split) must still slab its rows
        across every shard, not degenerate to shard 0."""
        router = ShardRouter(4, nrows=2 ** 33, ncols=2 ** 33, partition="range")
        assert router.spec is None
        rows = np.linspace(0, 2 ** 33 - 1, 10_000).astype(np.uint64)
        cols = np.zeros(10_000, dtype=np.uint64)
        shard = router.shard_of(rows, cols)
        assert set(np.unique(shard)) == {0, 1, 2, 3}
        assert np.all(np.diff(shard) >= 0)

    def test_invalid_arguments(self):
        from repro.graphblas.errors import InvalidValue

        with pytest.raises(InvalidValue):
            ShardRouter(0)
        with pytest.raises(InvalidValue):
            ShardRouter(2, partition="modulo")


# --------------------------------------------------------------------------- #
# sharded-vs-flat equivalence
# --------------------------------------------------------------------------- #


def flat_from_batches(batches, cuts=CUTS):
    flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=list(cuts))
    for rows, cols, vals in batches:
        flat.update(rows, cols, vals)
    return flat


class TestShardedEquivalence:
    @pytest.mark.parametrize("nshards", [2, 3, 5])
    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_materialize_bit_identical(self, nshards, partition):
        batches = random_stream(seed=nshards * 10 + len(partition))
        flat = flat_from_batches(batches)
        with ShardedHierarchicalMatrix(
            nshards, cuts=CUTS, partition=partition
        ) as sharded:
            for rows, cols, vals in batches:
                sharded.update(rows, cols, vals)
            assert sharded.materialize().isequal(flat.materialize())

    @pytest.mark.parametrize("nshards", [2, 4])
    def test_materialize_bit_identical_lexsort_engine(self, nshards):
        """The equivalence must hold on the fallback coordinate engine too."""
        with coords.packing_disabled():
            batches = random_stream(seed=77)
            flat = flat_from_batches(batches)
            with ShardedHierarchicalMatrix(nshards, cuts=CUTS) as sharded:
                for rows, cols, vals in batches:
                    sharded.update(rows, cols, vals)
                assert sharded.materialize().isequal(flat.materialize())

    def test_get_matches_flat(self):
        batches = random_stream(seed=21)
        flat = flat_from_batches(batches)
        with ShardedHierarchicalMatrix(3, cuts=CUTS) as sharded:
            for rows, cols, vals in batches:
                sharded.update(rows, cols, vals)
            rows0, cols0, _ = batches[0]
            for i in range(0, 50):
                r, c = int(rows0[i]), int(cols0[i])
                assert sharded.get(r, c) == flat.get(r, c)
            assert sharded.get(2 ** 31 + 1, 2 ** 31 + 5, default=-1.0) == -1.0

    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_reductions_match_flat(self, partition):
        batches = random_stream(seed=31)
        flat_matrix = flat_from_batches(batches).materialize()
        with ShardedHierarchicalMatrix(3, cuts=CUTS, partition=partition) as sharded:
            for rows, cols, vals in batches:
                sharded.update(rows, cols, vals)
            assert sharded.reduce_rowwise("plus").isequal(
                flat_matrix.reduce_rowwise("plus")
            )
            assert sharded.reduce_columnwise("plus").isequal(
                flat_matrix.reduce_columnwise("plus")
            )
            assert sharded.reduce_rowwise("max").isequal(
                flat_matrix.reduce_rowwise("max")
            )

    def test_scalar_and_tuple_updates(self):
        with ShardedHierarchicalMatrix(2, cuts=CUTS) as sharded:
            sharded.update(5, 6)
            sharded.update(5, 6, 2.0)
            assert sharded.get(5, 6) == 3.0
            assert sharded[5, 6] == 3.0
            assert (5, 6) in sharded

    def test_packet_stream_ingest(self):
        """External traffic streams shard via the shared batch protocol."""
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for batch in synthetic_packets(2_000, 3, seed=9):
            flat.update(batch.sources, batch.destinations, 1.0)
        with ShardedHierarchicalMatrix(4, cuts=CUTS) as sharded:
            n = sharded.ingest(synthetic_packets(2_000, 3, seed=9))
            assert n == 6_000
            assert sharded.total_updates == 6_000
            assert sharded.batches_ingested == 3
            assert sharded.materialize().isequal(flat.materialize())

    def test_process_backed_shards(self):
        """The same equivalence through real worker processes and queues."""
        batches = random_stream(seed=55, nbatches=4)
        flat = flat_from_batches(batches)
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, use_processes=True
        ) as sharded:
            for rows, cols, vals in batches:
                sharded.update(rows, cols, vals)
            stats = sharded.finalize()
            assert sum(s["total_updates"] for s in stats) == 4 * 400
            assert sharded.materialize().isequal(flat.materialize())
            rows0, cols0, _ = batches[0]
            assert sharded.get(int(rows0[0]), int(cols0[0])) == flat.get(
                int(rows0[0]), int(cols0[0])
            )

    def test_clear_resets(self):
        with ShardedHierarchicalMatrix(2, cuts=CUTS) as sharded:
            sharded.update([1, 2], [3, 4], [1.0, 1.0])
            sharded.clear()
            assert sharded.total_updates == 0
            assert sharded.materialize().nvals == 0

    def test_reports_and_rates(self):
        with ShardedHierarchicalMatrix(2, cuts=CUTS) as sharded:
            batches = random_stream(seed=3, nbatches=3)
            for rows, cols, vals in batches:
                sharded.update(rows, cols, vals)
            sharded.finalize()
            reports = sharded.reports()
            assert len(reports) == 2
            assert sum(r.total_updates for r in reports) == 3 * 400
            assert all(r.updates_per_second > 0 for r in reports)
            assert sharded.aggregate_rate_sum > 0

    def test_dimension_mismatch_raises(self):
        from repro.graphblas.errors import DimensionMismatch

        with ShardedHierarchicalMatrix(2, cuts=CUTS) as sharded:
            with pytest.raises(DimensionMismatch):
                sharded.update([1, 2], [3])
            with pytest.raises(DimensionMismatch):
                sharded.update([1, 2], [3, 4], [1.0])


# --------------------------------------------------------------------------- #
# worker pool protocol
# --------------------------------------------------------------------------- #


class TestShardWorkerPool:
    def test_worker_crash_surfaces_in_parent(self):
        with ShardWorkerPool(
            1, matrix_kwargs={"cuts": CUTS}, use_processes=True
        ) as pool:
            with pytest.raises(WorkerCrash):
                pool.request(0, "reduce", ("bogus-axis", "not-an-op"))
            # The worker survives the crash and keeps serving.
            assert pool.request(0, "get", (1, 2)) is None

    def test_inprocess_errors_raise_immediately(self):
        with ShardWorkerPool(
            1, matrix_kwargs={"cuts": CUTS}, use_processes=False
        ) as pool:
            with pytest.raises(Exception):
                pool.request(0, "no-such-command", None)

    def test_selfgen_remainder_through_pool(self):
        """The pool's self-generated source uses the fixed exact-count loop."""
        with ShardWorkerPool(
            1, matrix_kwargs={"cuts": CUTS}, use_processes=False
        ) as pool:
            report = pool.request(
                0, "selfgen", {"total_updates": 7_500, "batch_size": 2_000, "seed": 2}
            )
            assert report.total_updates == 7_500
            assert report.updates_per_second > 0
            assert report.final_nvals > 0
            assert len(report.cascades) == len(CUTS) + 1

    def test_selfgen_streams_differ_by_worker_id(self):
        """Each worker's stream is seeded by its id, so instances differ."""
        a, b = HierarchicalMatrix(cuts=CUTS), HierarchicalMatrix(cuts=CUTS)
        stream_powerlaw(a, 0, 5_000, 1_000, seed=1)
        stream_powerlaw(b, 1, 5_000, 1_000, seed=1)
        assert not a.materialize().isequal(b.materialize())

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ShardWorkerPool(0)
