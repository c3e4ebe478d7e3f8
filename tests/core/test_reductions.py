"""Property tests for the incremental reduction subsystem.

The contract under test (the tentpole guarantee): the incrementally maintained
row/col reduction vectors — weighted out-/in-degree, fan-out/fan-in, total
traffic, exact nnz — are *bit-identical* to the materialize-based reductions,
across shard counts, both partition strategies, and both coordinate engines,
while never forcing the deferred layer-1 flush.  Streams use small integer
values (exact in fp64) so any grouping of the additions yields bit-identical
sums, the same idiom the sharded-equivalence suite uses.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HierarchicalMatrix,
    IncrementalReductions,
    KeySetCascade,
    load_checkpoint,
    save_checkpoint,
)
from repro.core import reductions
from repro.distributed import ShardedHierarchicalMatrix
from repro.graphblas import Matrix, Vector, binary, coords, monoid
from repro.graphblas import _kernels as K
from repro.graphblas.errors import InvalidValue

CUTS = [500, 5_000]


def random_batches(seed, nbatches=6, batch=300, space=2 ** 18):
    """Integer-valued random batches with plenty of duplicate coordinates."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(nbatches):
        rows = rng.integers(0, space, batch, dtype=np.uint64)
        cols = rng.integers(0, space, batch, dtype=np.uint64)
        vals = rng.integers(1, 8, batch).astype(np.float64)
        out.append((rows, cols, vals))
    return out


def reference_reductions(flat: Matrix):
    """The materialize-based reductions the incremental ones must equal."""
    ones = flat.apply("one")
    return {
        "row_traffic": flat.reduce_rowwise(monoid.plus),
        "col_traffic": flat.reduce_columnwise(monoid.plus),
        "row_fan": ones.reduce_rowwise(monoid.plus),
        "col_fan": ones.reduce_columnwise(monoid.plus),
        "total": float(flat.reduce_scalar(monoid.plus)),
        "nnz": flat.nvals,
    }


def assert_incremental_matches(inc, flat: Matrix):
    ref = reference_reductions(flat)
    assert inc.row_traffic().isequal(ref["row_traffic"])
    assert inc.col_traffic().isequal(ref["col_traffic"])
    assert inc.row_fan().isequal(ref["row_fan"])
    assert inc.col_fan().isequal(ref["col_fan"])
    assert float(inc.total()) == ref["total"]
    assert inc.nnz() == ref["nnz"]


# --------------------------------------------------------------------------- #
# the hierarchical distinct-key set
# --------------------------------------------------------------------------- #


class TestKeySetCascade:
    def test_insert_and_membership(self):
        ks = KeySetCascade(cuts=[4, 16])
        ks.add_new(np.array([3, 7, 11], dtype=np.uint64))
        assert ks.count == 3
        assert 7 in ks and 8 not in ks
        mask = ks.contains(np.array([1, 3, 11, 12], dtype=np.uint64))
        assert mask.tolist() == [False, True, True, False]

    def test_cascade_keeps_levels_disjoint_and_sorted(self):
        ks = KeySetCascade(cuts=[8, 32])
        rng = np.random.default_rng(0)
        seen = np.empty(0, dtype=np.uint64)
        for _ in range(20):
            batch = np.unique(rng.integers(0, 10_000, 50, dtype=np.uint64))
            new = batch[~ks.contains(batch)]
            ks.add_new(new)
            seen = np.union1d(seen, batch)
            assert ks.count == seen.size
            assert np.array_equal(ks.to_array(), seen)
            # Every level individually sorted; bottom level bounded by its cut
            # right after a cascade check.
            for level in ks._levels:
                assert np.all(np.diff(level.astype(np.int64)) > 0) or level.size <= 1

    def test_count_is_sum_of_disjoint_levels(self):
        ks = KeySetCascade(cuts=[2])
        ks.add_new(np.array([1, 2, 3], dtype=np.uint64))  # cascades past cut 2
        ks.add_new(np.array([4], dtype=np.uint64))
        assert ks.count == 4
        assert len(ks) == 4
        arrays = [lvl for lvl in ks._levels if lvl.size]
        merged = np.concatenate(arrays)
        assert np.unique(merged).size == merged.size  # pairwise disjoint

    def test_invalid_cuts_raise(self):
        with pytest.raises(InvalidValue):
            KeySetCascade(cuts=[0])


# --------------------------------------------------------------------------- #
# flat hierarchical matrix
# --------------------------------------------------------------------------- #


class TestIncrementalFlat:
    @pytest.mark.parametrize("packed_engine", [True, False])
    def test_bit_identical_to_materialize(self, packed_engine):
        batches = random_batches(seed=7)
        H = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        if packed_engine:
            for b in batches:
                H.update(*b)
            assert_incremental_matches(H.incremental, H.materialize())
        else:
            with coords.packing_disabled():
                for b in batches:
                    H.update(*b)
                assert_incremental_matches(H.incremental, H.materialize())

    def test_queries_do_not_force_flush(self):
        H = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=[10 ** 9])
        for b in random_batches(seed=3, nbatches=3):
            H.update(*b)
        assert H.layers[0].has_pending
        inc = H.incremental
        inc.row_traffic(), inc.col_traffic(), inc.row_fan(), inc.col_fan()
        inc.total(), inc.nnz()
        assert H.layers[0].has_pending, "incremental reads must not flush layer 1"

    def test_scalar_and_single_inserts(self):
        H = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=[4, 16])
        H.update(5, 6)
        H.update(5, 6, 2.0)
        H.insert(9, 9, 3.0)
        assert_incremental_matches(H.incremental, H.materialize())
        assert H.incremental.nnz() == 2

    def test_update_matrix_paths(self):
        other = Matrix.from_coo([1, 2, 2], [10, 20, 20], [1.0, 2.0, 3.0],
                                nrows=2 ** 32, ncols=2 ** 32)
        H = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        H.update_matrix(other)
        H.update([1], [10], [4.0])
        assert_incremental_matches(H.incremental, H.materialize())

    def test_clear_resets(self):
        H = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        H.update([1, 2], [3, 4], [1.0, 1.0])
        H.clear()
        assert H.incremental.nnz() == 0
        assert float(H.incremental.total()) == 0.0
        H.update([7], [8], [2.0])
        assert_incremental_matches(H.incremental, H.materialize())

    def test_non_plus_accum_unsupported(self):
        H = HierarchicalMatrix(cuts=CUTS, accum=binary.max)
        H.update([1, 1], [2, 2], [5.0, 3.0])
        assert not H.incremental.supported
        with pytest.raises(InvalidValue):
            H.incremental.row_traffic()

    def test_track_reductions_false_disables(self):
        H = HierarchicalMatrix(cuts=CUTS, track_reductions=False)
        H.update([1], [2], [1.0])
        assert not H.incremental.supported

    def test_ipv6_shape_tracks_traffic_only(self):
        H = HierarchicalMatrix(2 ** 64, 2 ** 64, cuts=CUTS)
        inc = H.incremental
        assert inc.supported and not inc.fan_supported
        H.update([2 ** 63, 5], [2 ** 63 + 1, 6], [2.0, 3.0])
        flat = H.materialize()
        assert inc.row_traffic().isequal(flat.reduce_rowwise(monoid.plus))
        with pytest.raises(InvalidValue):
            inc.row_fan()

    def test_integer_dtype(self):
        batches = random_batches(seed=13, nbatches=3)
        H = HierarchicalMatrix(2 ** 32, 2 ** 32, "int64", cuts=CUTS)
        for r, c, v in batches:
            H.update(r, c, v.astype(np.int64))
        assert_incremental_matches(H.incremental, H.materialize())

    def test_checkpoint_restore_rebuilds_tracker(self, tmp_path):
        H = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for b in random_batches(seed=17, nbatches=3):
            H.update(*b)
        path = save_checkpoint(H, tmp_path / "ckpt.npz")
        restored = load_checkpoint(path)
        assert_incremental_matches(restored.incremental, restored.materialize())
        # ... and stays consistent as streaming continues.
        restored.update([1, 2], [3, 4], [1.0, 1.0])
        assert_incremental_matches(restored.incremental, restored.materialize())

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(1, 9)),
            min_size=0,
            max_size=120,
        ),
        nbatches=st.integers(1, 5),
        engine_packed=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_bit_identity(self, pairs, nbatches, engine_packed):
        """Any batch split of any duplicate-heavy stream, on either engine."""
        H = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=[8, 64])

        def run():
            for chunk in np.array_split(np.arange(len(pairs)), nbatches):
                if chunk.size == 0:
                    continue
                rows = np.array([pairs[i][0] for i in chunk], dtype=np.uint64)
                cols = np.array([pairs[i][1] for i in chunk], dtype=np.uint64)
                vals = np.array([pairs[i][2] for i in chunk], dtype=np.float64)
                H.update(rows, cols, vals)
            assert_incremental_matches(H.incremental, H.materialize())

        if engine_packed:
            run()
        else:
            with coords.packing_disabled():
                run()


# --------------------------------------------------------------------------- #
# the deferred-segment machinery (window reads, flush absorption, catch-up)
# --------------------------------------------------------------------------- #


def following(cut=10**9, nrows=2**32):
    """A hierarchy whose layer 1 flushes only on ``wait()`` (one huge cut)."""
    return HierarchicalMatrix(nrows, nrows, cuts=[cut])


def stream(H, flat, batch):
    H.update(*batch)
    flat.build(*batch)


class TestDeferredCatchUp:
    """The tracker reads layer 1's pending window in place.

    A read takes the window by offset; the flush hands over its collapsed
    output when no read took anything, else only the untaken raw tail.
    """

    def test_tiny_drain_interval_valve_stays_exact(self, monkeypatch):
        """Windows longer than the interval: settled before each one lands."""
        monkeypatch.setattr(reductions, "DRAIN_INTERVAL", 64)
        H, flat = following(), Matrix("fp64", 2**32, 2**32)
        for batch in random_batches(seed=19, nbatches=5, batch=100):
            stream(H, flat, batch)
            H.wait()
        inc = H.incremental
        assert inc.piggybacked_drains == 5 and inc.full_drains == 0
        assert inc.run_merges == 4  # the valve fired mid-stream, once per later window
        stream(H, flat, random_batches(seed=20, nbatches=1, batch=300)[0])
        assert float(inc.total()) == float(flat.reduce_scalar(monoid.plus))
        assert inc.run_merges == 6  # the raw 300-entry read also tripped it
        assert_incremental_matches(inc, flat)

    def test_absorbed_flushes_catch_up_exactly(self, monkeypatch):
        """Unread windows settle through the segment store, never a raw slice."""
        monkeypatch.setattr(reductions, "DRAIN_INTERVAL", 150)
        H, flat = following(), Matrix("fp64", 2**32, 2**32)
        for batch in random_batches(seed=23, nbatches=6, batch=60):
            stream(H, flat, batch)
            H.wait()
        inc = H.incremental
        assert inc.piggybacked_drains == 6
        assert inc.run_merges == 2  # interval crossed: in-stream catch-ups
        assert inc.full_drains == 0  # no raw slice was ever queued
        assert_incremental_matches(inc, flat)

    def test_read_mid_window_then_flush(self):
        H, flat = following(), Matrix("fp64", 2**32, 2**32)
        first, second = random_batches(seed=37, nbatches=2, batch=40)
        stream(H, flat, first)
        H.wait()
        inc = H.incremental
        assert (inc.piggybacked_drains, inc.full_drains) == (1, 0)
        stream(H, flat, second)
        inc.total()  # takes the whole window raw, flushes nothing
        assert H.layers[0].has_pending
        assert (inc.piggybacked_drains, inc.full_drains) == (1, 1)
        H.wait()  # a partly taken window is not handed over collapsed
        assert (inc.piggybacked_drains, inc.full_drains) == (1, 1)
        assert_incremental_matches(inc, flat)

    def test_read_at_flush_boundary_takes_nothing(self):
        H, flat = following(), Matrix("fp64", 2**32, 2**32)
        first, second = random_batches(seed=41, nbatches=2, batch=40)
        stream(H, flat, first)
        H.wait()
        inc = H.incremental
        inc.nnz()  # the window is empty: nothing to take
        assert inc.full_drains == 0 and inc._taken == 0
        stream(H, flat, second)
        H.wait()
        assert (inc.piggybacked_drains, inc.full_drains) == (2, 0)
        assert_incremental_matches(inc, flat)

    def test_second_read_takes_only_the_new_tail(self):
        H, flat = following(), Matrix("fp64", 2**32, 2**32)
        a, b, c = random_batches(seed=43, nbatches=3, batch=40)
        inc = H.incremental
        stream(H, flat, a)
        inc.nnz()
        stream(H, flat, b)
        assert float(inc.total()) == float(flat.reduce_scalar(monoid.plus))
        assert inc._taken == 80 and inc.full_drains == 2
        inc.nnz()  # nothing new since the last read
        assert inc.full_drains == 2
        stream(H, flat, c)
        H.wait()  # queues the untaken 40 raw, then starts over
        assert inc._taken == 0
        assert (inc.piggybacked_drains, inc.full_drains) == (0, 3)
        assert_incremental_matches(inc, flat)

    def test_reset_clears_deferred_segments(self):
        """``clear()`` and ``reset()`` zero the taken offset and the store."""
        H = following()
        first, second = random_batches(seed=29, nbatches=2, batch=50)
        inc = H.incremental
        H.update(*first)
        inc.total()
        assert inc._taken == 50
        H.clear()
        assert inc._taken == 0 and inc._segments.used == 0
        assert inc.nnz() == 0 and float(inc.total()) == 0.0
        # ... and keeps tracking correctly afterwards: the next window is
        # whole again, so its flush is handed over collapsed.
        flat = Matrix("fp64", 2**32, 2**32)
        stream(H, flat, second)
        H.wait()
        assert inc.piggybacked_drains == 1
        assert_incremental_matches(inc, flat)
        H.update(*first)
        inc.total()
        inc.reset()
        assert inc._taken == 0 and inc._segments.used == 0

    def test_queries_between_flushes_stay_exact(self):
        """Reads and flushes interleaved at every phase of the window."""
        H, flat = HierarchicalMatrix(2**32, 2**32, cuts=[100, 400]), Matrix("fp64", 2**32, 2**32)
        inc = H.incremental
        # Windows are 3 batches long: reads land mid-window, on a flush
        # boundary, and not at all.
        for i, batch in enumerate(random_batches(seed=47, nbatches=12, batch=40)):
            stream(H, flat, batch)
            if i % 4 == 1:
                pending = H.layers[0].has_pending
                assert float(inc.total()) == float(flat.reduce_scalar(monoid.plus))
                assert H.layers[0].has_pending == pending
        assert inc.piggybacked_drains and inc.full_drains
        assert_incremental_matches(inc, flat)

    def test_observe_is_safe_against_buffer_reuse(self):
        """A standalone tracker copies at append: callers may mutate immediately."""
        inc = IncrementalReductions(2**32, 2**32)
        r = np.array([1, 2], dtype=np.uint64)
        c = np.array([3, 4], dtype=np.uint64)
        v = np.array([1.0, 2.0])
        inc.observe(r, c, v)
        r[0] = 9
        v[0] = 50.0
        assert float(inc.total()) == 3.0
        assert inc.row_traffic().to_coo()[0].tolist() == [1, 2]

    def test_non_plus_hierarchy_is_not_followed(self):
        """Only ``plus`` windows ever reach a tracker: others get no hook."""
        for H in (
            HierarchicalMatrix(2**32, 2**32, cuts=CUTS, accum=binary.max),
            HierarchicalMatrix(2**32, 2**32, cuts=CUTS, track_reductions=False),
        ):
            H.update([7, 7], [8, 8], [2.0, 3.0])
            H.wait()
            assert H.layers[0].flush_hook is None
            assert H.incremental.piggybacked_drains == 0

    def test_traffic_only_shape_reads_the_same_window(self):
        """A 2^64 shape has no key: reads take the window as rows and cols."""
        H, flat = following(nrows=2**64), Matrix("fp64", 2**64, 2**64)
        inc = H.incremental
        stream(H, flat, ([1, 2], [3, 4], [1.0, 2.0]))
        assert inc.row_traffic().isequal(flat.reduce_rowwise(monoid.plus))
        stream(H, flat, ([2**63, 2], [5, 4], [4.0, 8.0]))  # demotes layer 1
        assert H.layers[0].key_spec is None and H.layers[0].has_pending
        assert inc.col_traffic().isequal(flat.reduce_columnwise(monoid.plus))
        H.wait()
        stream(H, flat, ([9], [9], [16.0]))
        H.wait()
        assert (inc.piggybacked_drains, inc.full_drains) == (1, 2)
        assert inc.row_traffic().isequal(flat.reduce_rowwise(monoid.plus))
        assert float(inc.total()) == 31.0

    def test_hierarchy_is_freed_without_the_cycle_collector(self):
        """Layer 1 holds the tracker (its flush hook); the tracker holds the
        layer weakly, so a streamed and read hierarchy dies on ``del``."""
        gc.disable()
        try:
            H = following()
            for batch in random_batches(seed=53, nbatches=2, batch=30):
                H.update(*batch)
                H.incremental.nnz()
            alive = weakref.ref(H)
            del H
            assert alive() is None
        finally:
            gc.enable()


# --------------------------------------------------------------------------- #
# sharded matrices: cross-shard merge
# --------------------------------------------------------------------------- #


class TestIncrementalSharded:
    @pytest.mark.parametrize("nshards", [1, 2, 3, 5])
    @pytest.mark.parametrize("partition", ["hash", "range"])
    def test_bit_identical_across_shards(self, nshards, partition):
        batches = random_batches(seed=nshards * 7 + len(partition))
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for b in batches:
            flat.update(*b)
        reference = flat.materialize()
        with ShardedHierarchicalMatrix(
            nshards, cuts=CUTS, partition=partition
        ) as sharded:
            for b in batches:
                sharded.update(*b)
            assert_incremental_matches(sharded.incremental, reference)

    @given(
        seed=st.integers(0, 99),
        nbatches=st.integers(1, 4),
        nshards=st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=15, deadline=None)
    def test_small_cut_streams(self, seed, nbatches, nshards):
        """Dense streams cascade deep in every shard (cuts 16/128), tracker exact.

        The flat case of the same shape is ``test_property_bit_identity``.
        """
        rng = np.random.default_rng(seed)
        flat = Matrix("fp64", 2 ** 32, 2 ** 32)
        with ShardedHierarchicalMatrix(nshards, cuts=[16, 128]) as sharded:
            for _ in range(nbatches):
                batch = (
                    rng.integers(0, 50, 40, dtype=np.uint64),
                    rng.integers(0, 50, 40, dtype=np.uint64),
                    rng.integers(1, 6, 40).astype(np.float64),
                )
                flat.build(*batch)
                sharded.update(*batch)
            assert_incremental_matches(sharded.incremental, flat)

    @pytest.mark.parametrize("nshards", [2, 4])
    def test_bit_identical_lexsort_engine(self, nshards):
        with coords.packing_disabled():
            batches = random_batches(seed=31)
            flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
            for b in batches:
                flat.update(*b)
            reference = flat.materialize()
            with ShardedHierarchicalMatrix(nshards, cuts=CUTS) as sharded:
                for b in batches:
                    sharded.update(*b)
                assert_incremental_matches(sharded.incremental, reference)

    def test_process_backed_shards(self):
        batches = random_batches(seed=41, nbatches=4)
        flat = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        for b in batches:
            flat.update(*b)
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, use_processes=True
        ) as sharded:
            for b in batches:
                sharded.update(*b)
            assert_incremental_matches(sharded.incremental, flat.materialize())

    def test_nvals_served_incrementally(self):
        with ShardedHierarchicalMatrix(2, cuts=CUTS) as sharded:
            sharded.update([1, 2, 1], [3, 4, 3], [1.0, 1.0, 2.0])
            assert sharded.nvals == 2

    def test_stats_command_snapshot(self):
        with ShardedHierarchicalMatrix(2, cuts=CUTS) as sharded:
            sharded.update([1, 2], [3, 4], [2.0, 3.0])
            stats = sharded._request_all("stats")
            assert all(s["supported"] and s["fan_supported"] for s in stats)
            assert sum(s["total"] for s in stats) == 5.0
            assert sum(s["nnz"] for s in stats) == 2
            assert sum(s["updates"] for s in stats) == 2

    def test_track_reductions_false_propagates(self):
        with ShardedHierarchicalMatrix(
            2, cuts=CUTS, track_reductions=False
        ) as sharded:
            sharded.update([1], [2], [1.0])
            assert not sharded.incremental.supported
            with pytest.raises(InvalidValue):
                sharded.incremental._merge("row_traffic", sharded.nrows)


# --------------------------------------------------------------------------- #
# vector lazy build (the mechanism the tracker rides)
# --------------------------------------------------------------------------- #


class TestVectorLazyBuild:
    def test_lazy_equals_eager(self):
        rng = np.random.default_rng(5)
        eager = Vector("fp64", 2 ** 32)
        lazy = Vector("fp64", 2 ** 32)
        for _ in range(5):
            idx = rng.integers(0, 1000, 200, dtype=np.uint64)
            vals = rng.integers(1, 5, 200).astype(np.float64)
            eager.build(idx, vals)
            lazy.build(idx, vals, lazy=True)
        assert lazy.has_pending
        assert lazy.isequal(eager)
        assert not lazy.has_pending  # isequal forced the merge

    def test_upper_bound_is_o1_and_reads_force_wait(self):
        v = Vector("fp64", 100)
        v.build([1, 2, 2], [1.0, 1.0, 1.0], lazy=True)
        assert v.has_pending and v.nvals_upper_bound == 3
        assert v.nvals == 2  # forces the merge, duplicates collapse
        assert v[2] == 2.0

    def test_operator_switch_flushes_first(self):
        v = Vector("fp64", 100)
        v.build([1], [5.0], lazy=True)
        v.setElement(1, 9.0)  # 'second' semantics, must see the pending plus
        assert v[1] == 9.0

    def test_copy_semantics_protect_against_mutation(self):
        v = Vector("fp64", 100)
        idx = np.array([1, 2], dtype=np.uint64)
        vals = np.array([1.0, 2.0])
        v.build(idx, vals, lazy=True)
        idx[0] = 50
        vals[0] = 99.0
        assert v[1] == 1.0 and v[50] is None

    def test_clear_drops_pending(self):
        v = Vector("fp64", 100)
        v.build([1], [1.0], lazy=True)
        v.clear()
        assert v.nvals == 0 and not v.has_pending
