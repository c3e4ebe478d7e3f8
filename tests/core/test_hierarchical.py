"""Tests for the hierarchical hypersparse matrix (the paper's core algorithm)."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FixedCuts, GeometricCuts, HierarchicalMatrix
from repro.graphblas import Matrix, arena, binary, coords
from repro.graphblas.errors import DimensionMismatch, InvalidValue


def flat_reference(updates, nrows=2**64, ncols=2**64):
    """Accumulate the same updates into one flat matrix (ground truth)."""
    ref = Matrix("fp64", nrows, ncols)
    for rows, cols, vals in updates:
        ref.build(rows, cols, vals, dup_op=binary.plus)
    return ref


def random_updates(rng, nbatches=12, batch=50, space=200):
    out = []
    for _ in range(nbatches):
        rows = rng.integers(0, space, batch).astype(np.uint64)
        cols = rng.integers(0, space, batch).astype(np.uint64)
        vals = rng.integers(1, 5, batch).astype(np.float64)
        out.append((rows, cols, vals))
    return out


class TestConstruction:
    def test_default_policy(self):
        H = HierarchicalMatrix()
        assert H.nlevels == 4
        assert H.cuts == (2**17, 2**20, 2**23)
        assert H.shape == (2**64, 2**64)

    def test_explicit_cuts(self):
        H = HierarchicalMatrix(cuts=[10, 100, 1000])
        assert H.nlevels == 4
        assert H.cuts == (10, 100, 1000)

    def test_policy_object(self):
        H = HierarchicalMatrix(policy=GeometricCuts(16, 4, 3))
        assert H.cuts == (16, 64)
        assert H.nlevels == 3

    def test_cuts_and_policy_mutually_exclusive(self):
        with pytest.raises(InvalidValue):
            HierarchicalMatrix(cuts=[10], policy=GeometricCuts())

    def test_invalid_cuts(self):
        with pytest.raises(ValueError):
            HierarchicalMatrix(cuts=[])
        with pytest.raises(ValueError):
            HierarchicalMatrix(cuts=[0, 10])
        with pytest.raises(ValueError):
            HierarchicalMatrix(cuts=[100, 10])

    def test_layers_start_empty(self):
        H = HierarchicalMatrix(cuts=[4])
        assert H.layer_nvals == (0, 0)
        assert H.nvals_stored == 0
        assert all(isinstance(layer, Matrix) for layer in H.layers)

    def test_repr(self):
        H = HierarchicalMatrix(cuts=[4, 8])
        assert "levels=3" in repr(H)


class TestUpdateSemantics:
    def test_single_update_lands_in_layer1(self):
        H = HierarchicalMatrix(cuts=[100, 1000])
        H.update([1, 2], [3, 4], [1.0, 2.0])
        assert H.layer_nvals == (2, 0, 0)

    def test_cascade_when_cut_exceeded(self):
        H = HierarchicalMatrix(cuts=[3, 1000])
        H.update([1, 2, 3, 4], [1, 2, 3, 4], 1.0)
        # nnz(A1)=4 > 3, so A1 spills into A2 and is cleared.
        assert H.layer_nvals == (0, 4, 0)
        assert H.stats.cascades[0] == 1

    def test_cascade_can_ripple_multiple_levels(self):
        H = HierarchicalMatrix(cuts=[2, 3, 1000])
        H.update(np.arange(5), np.arange(5), 1.0)
        # 5 > 2 spills to A2; 5 > 3 spills again to A3; 5 <= 1000 stops there.
        assert H.layer_nvals == (0, 0, 5, 0)
        assert H.stats.cascades[0] == 1
        assert H.stats.cascades[1] == 1

    def test_no_cascade_below_cut(self):
        H = HierarchicalMatrix(cuts=[10])
        H.update(np.arange(5), np.arange(5), 1.0)
        assert H.layer_nvals == (5, 0)
        assert H.stats.cascades == [0, 0]

    def test_last_layer_never_cascades(self):
        H = HierarchicalMatrix(cuts=[2])
        for i in range(10):
            H.update([i * 3, i * 3 + 1, i * 3 + 2], [0, 1, 2], 1.0)
        assert H.layer_nvals[0] == 0 or H.layer_nvals[0] <= 2
        assert H.layer_nvals[-1] >= 24

    def test_duplicate_coordinates_accumulate(self):
        H = HierarchicalMatrix(cuts=[100])
        H.update([5, 5], [7, 7], [1.0, 2.0])
        H.update([5], [7], [4.0])
        assert H.get(5, 7) == 7.0

    def test_update_matrix(self):
        H = HierarchicalMatrix(nrows=100, ncols=100, cuts=[10])
        M = Matrix.from_coo([1, 2], [3, 4], [1.0, 1.0], nrows=100, ncols=100)
        H.update_matrix(M)
        assert H.get(1, 3) == 1.0

    @pytest.mark.parametrize("accum", [binary.plus, binary.max, binary.minus])
    def test_update_matrix_equals_update(self, accum):
        """``update_matrix(M)`` is ``update`` of M's tuples, under any accumulator.

        The ``plus`` tracker after ``update_matrix`` is checked against the
        materialize-based reductions in ``test_reductions.py``.
        """
        rng = np.random.default_rng(11)
        (first,) = random_updates(rng, nbatches=1, batch=60, space=12)
        M = Matrix.from_coo(*first, nrows=2**32, ncols=2**32)
        later = random_updates(rng, nbatches=3, batch=20, space=12)
        via_matrix = HierarchicalMatrix(2**32, 2**32, cuts=[8, 32], accum=accum)
        via_update = HierarchicalMatrix(2**32, 2**32, cuts=[8, 32], accum=accum)
        via_matrix.update_matrix(M)
        via_update.update(*M.extract_tuples())
        for batch in later:
            via_matrix.update(*batch)
            via_update.update(*batch)
        assert via_matrix.stats.cascades == via_update.stats.cascades
        assert via_matrix.layer_nvals == via_update.layer_nvals
        assert via_matrix.materialize().isequal(via_update.materialize(), check_dtype=True)

    def test_update_matrix_shape_check(self):
        H = HierarchicalMatrix(nrows=100, ncols=100, cuts=[10])
        with pytest.raises(DimensionMismatch):
            H.update_matrix(Matrix("fp64", 50, 50))

    def test_insert_single_element(self):
        H = HierarchicalMatrix(cuts=[5])
        H.insert(2**40, 2**41, 3.0)
        assert H[2**40, 2**41] == 3.0

    def test_iadd_matrix_and_tuple(self):
        H = HierarchicalMatrix(nrows=10, ncols=10, cuts=[100])
        H += Matrix.from_coo([0], [1], [2.0], nrows=10, ncols=10)
        H += ([1], [2], [3.0])
        H += ([3], [4])
        assert H.get(0, 1) == 2.0
        assert H.get(1, 2) == 3.0
        assert H.get(3, 4) == 1
        with pytest.raises(TypeError):
            H += 5

    def test_scalar_value_broadcast(self):
        H = HierarchicalMatrix(cuts=[100])
        H.update([1, 2, 3], [4, 5, 6], 2.5)
        assert H.get(2, 5) == 2.5

    def test_hypersparse_coordinates(self):
        H = HierarchicalMatrix(cuts=[5])
        H.update([2**63, 2**62], [2**61, 2**60], [1.0, 2.0])
        assert H[2**63, 2**61] == 1.0


class TestCorrectness:
    """The hierarchy is purely a performance transformation — results must
    exactly equal flat accumulation (the paper's linearity guarantee)."""

    @pytest.mark.parametrize("cuts", [[5], [3, 9], [2, 4, 8], [50, 500], [1, 2, 3]])
    def test_materialize_equals_flat_accumulation(self, rng, cuts):
        updates = random_updates(rng)
        H = HierarchicalMatrix(cuts=cuts)
        for rows, cols, vals in updates:
            H.update(rows, cols, vals)
        assert H.materialize().isclose(flat_reference(updates), abs_tol=1e-9)

    def test_materialize_does_not_disturb_layers(self, rng):
        updates = random_updates(rng, nbatches=5)
        H = HierarchicalMatrix(cuts=[10, 100])
        for rows, cols, vals in updates:
            H.update(rows, cols, vals)
        before = H.layer_nvals
        m1 = H.materialize()
        assert H.layer_nvals == before
        # Streaming can continue and stays correct.
        H.update([1], [1], [1.0])
        m2 = H.materialize()
        assert m2.nvals >= m1.nvals

    def test_flush_collapses_and_preserves_content(self, rng):
        updates = random_updates(rng, nbatches=6)
        H = HierarchicalMatrix(cuts=[7, 70])
        for rows, cols, vals in updates:
            H.update(rows, cols, vals)
        reference = H.materialize()
        top = H.flush()
        assert top.isclose(reference, abs_tol=1e-9)
        assert all(n == 0 for n in H.layer_nvals[:-1])
        # Streaming continues after a flush.
        H.update([9], [9], [1.0])
        assert H.materialize().nvals >= reference.nvals

    def test_nvals_matches_distinct_coordinates(self, rng):
        updates = random_updates(rng, nbatches=4, space=30)
        H = HierarchicalMatrix(cuts=[5])
        seen = set()
        for rows, cols, vals in updates:
            H.update(rows, cols, vals)
            seen.update(zip(rows.tolist(), cols.tolist()))
        assert H.nvals == len(seen)

    def test_get_sums_across_layers(self):
        H = HierarchicalMatrix(cuts=[2, 100])
        H.update([1, 2, 3], [1, 2, 3], 1.0)  # cascades into layer 2
        H.update([1], [1], [5.0])            # stays in layer 1
        assert H.layer_nvals[0] >= 1 and H.layer_nvals[1] >= 3
        assert H.get(1, 1) == 6.0
        assert H[2, 2] == 1.0
        assert H.get(9, 9) is None
        assert H.get(9, 9, default=0.0) == 0.0
        assert (1, 1) in H and (9, 9) not in H

    def test_to_coo(self):
        H = HierarchicalMatrix(cuts=[2])
        H.update([3, 1], [4, 2], [1.0, 2.0])
        rows, cols, vals = H.to_coo()
        assert rows.size == 2

    def test_clear(self):
        H = HierarchicalMatrix(cuts=[2])
        H.update([1, 2, 3], [1, 2, 3], 1.0)
        H.clear()
        assert H.nvals_stored == 0
        assert H.stats.total_updates == 0
        H.update([1], [1], [1.0])
        assert H.nvals == 1

    def test_cascades_keep_the_pending_arena(self):
        """A cascade empties layer i with reset(), not clear(): the stream's
        2,000 appends grow the arenas a handful of times in total, not once
        per doubling per cascade (633 before); user-facing clear() releases."""
        rng = np.random.default_rng(3)
        H = HierarchicalMatrix(2**32, 2**32, cuts=[2**13, 2**16, 2**19])
        before = arena.grow_calls()
        for _ in range(2_000):
            rows = rng.integers(0, 2**22, 1_000, dtype=np.uint64)
            H.update(rows, rows[::-1], 1)
        H.wait()
        assert H.stats.cascades[0] > 100
        assert arena.grow_calls() - before <= 10
        assert H.memory_breakdown["pending_capacity_bytes"] > 0
        H.layers[0].clear()
        assert H.layers[0].memory_breakdown["pending_capacity_bytes"] == 0

    def test_min_accumulator(self):
        H = HierarchicalMatrix(cuts=[2, 10], accum=binary.min)
        H.update([1, 2, 3], [1, 2, 3], [5.0, 5.0, 5.0])
        H.update([1], [1], [2.0])
        H.update([1], [1], [9.0])
        assert H.get(1, 1) == 2.0


def cascade_model(cuts, batches):
    """The paper's cut rule over per-layer coordinate sets (eager ingest).

    Each batch is added into layer 1; then, from the bottom up, a layer
    whose distinct-coordinate count exceeds its cut is added into the next
    layer and cleared, stopping at the first layer within its cut.
    """
    layers = [set() for _ in range(len(cuts) + 1)]
    cascades = [0] * len(layers)
    for batch in batches:
        layers[0].update(batch)
        for i, cut in enumerate(cuts):
            if len(layers[i]) <= cut:
                break
            layers[i + 1] |= layers[i]
            layers[i] = set()
            cascades[i] += 1
    return cascades, tuple(len(layer) for layer in layers)


class TestCascadeSchedule:
    """Deferred ingest cascades exactly where eager ingest would.

    Layer 1 checks its cut against the O(1) stored + pending bound and only
    flushes when the bound crosses it, but the cascade itself must fire at
    the first batch after which the *collapsed* ``nnz(A_i) > c_i`` — the
    schedule of the set model above, whatever the batch sizes, duplicates,
    and reads in between.
    """

    READS = {
        "get": lambda H: H.get(1, 1),
        "layer_nvals": lambda H: H.layer_nvals,
        "nnz": lambda H: H.incremental.nnz() if H.incremental.fan_supported else H.nvals,
        "wait": lambda H: H.wait(),
    }

    # 2^32 shapes stay keyed; 2^63-offset coordinates on a 2^64 shape
    # demote layer 1 to the dual-key store on the first batch.
    @pytest.mark.parametrize("dim,offset", [(2**32, 0), (2**64, 2**63)], ids=["keyed", "dual"])
    @given(
        cuts=st.lists(st.integers(1, 40), min_size=1, max_size=3).map(sorted),
        space=st.sampled_from([2, 4, 8, 64]),
        steps=st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=30),
                st.sampled_from([None, *READS]),
            ),
            max_size=25,
        ),
        packed=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_schedule_matches_set_model(self, dim, offset, cuts, space, steps, packed):
        batches = [[(r % space, c % space) for r, c in pairs] for pairs, _ in steps]
        H = HierarchicalMatrix(dim, dim, cuts=cuts)
        with coords.packing_disabled() if not packed else contextlib.nullcontext():
            for batch, (_, read) in zip(batches, steps):
                rows = np.array([r + offset for r, _ in batch], dtype=np.uint64)
                cols = np.array([c + offset for _, c in batch], dtype=np.uint64)
                H.update(rows, cols, 1.0)
                if read is not None:
                    self.READS[read](H)
            cascades, layer_nvals = cascade_model(cuts, batches)
            assert H.stats.cascades == cascades
            assert H.layer_nvals == layer_nvals


class TestStatsTracking:
    def test_stats_always_on(self):
        with pytest.raises(TypeError):
            HierarchicalMatrix(cuts=[2], track_stats=False)
        assert HierarchicalMatrix(cuts=[2]).stats.total_updates == 0

    def test_total_updates_counts_elements(self):
        H = HierarchicalMatrix(cuts=[100])
        H.update(np.arange(10), np.arange(10), 1.0)
        H.update(np.arange(5), np.arange(5), 1.0)
        assert H.stats.total_updates == 15
        assert H.stats.update_calls == 2

    def test_element_writes_layer0_equals_stream(self):
        H = HierarchicalMatrix(cuts=[3])
        for i in range(4):
            H.update(np.arange(i * 5, i * 5 + 5), np.arange(5), 1.0)
        assert H.stats.element_writes[0] == 20

    def test_fast_memory_fraction_between_0_and_1(self, rng):
        H = HierarchicalMatrix(cuts=[10, 100])
        for rows, cols, vals in random_updates(rng, nbatches=8):
            H.update(rows, cols, vals)
        assert 0.0 <= H.stats.fast_memory_fraction <= 1.0

    def test_max_layer_nvals_tracked(self):
        H = HierarchicalMatrix(cuts=[3])
        H.update(np.arange(5), np.arange(5), 1.0)
        assert H.stats.max_layer_nvals[0] >= 5 or H.stats.max_layer_nvals[1] >= 5

    def test_max_layer_nvals_counts_stored_entries_not_pending_tuples(self):
        """150 pending copies of one coordinate collapse to 1 stored entry;
        the raw pending count must never be recorded as layer 1's size."""
        H = HierarchicalMatrix(2**32, 2**32, cuts=[100])
        for _ in range(3):
            H.update(np.full(50, 7), np.full(50, 9), 1.0)
        H.wait()
        assert H.stats.max_layer_nvals == [1, 0]
        assert H.get(7, 9) == 150.0

    def test_memory_usage_positive(self):
        H = HierarchicalMatrix(cuts=[100])
        H.update(np.arange(10), np.arange(10), 1.0)
        assert H.memory_usage > 0


class TestHierarchyBeatsFlatOnWrites:
    def test_slow_memory_writes_smaller_than_flat(self, rng):
        """The paper's core claim, in miniature: the hierarchy writes far fewer
        elements into the big (slow) layer than a flat accumulation rewrites."""
        from repro.baselines import FlatGraphBLASIngestor

        updates = random_updates(rng, nbatches=30, batch=100, space=100_000)
        H = HierarchicalMatrix(cuts=[200, 2000])
        flat = FlatGraphBLASIngestor(2**32, 2**32)
        for rows, cols, vals in updates:
            H.update(rows, cols, vals)
            flat.update(rows, cols, vals)
        assert H.stats.slow_memory_writes < flat.element_writes
