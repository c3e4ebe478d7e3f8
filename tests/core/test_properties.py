"""Property-based tests for the hierarchical cascade invariants.

The central invariant (the paper's linearity argument): for ANY sequence of
updates and ANY valid cut configuration, the hierarchical matrix materialises
to exactly the same matrix as flat accumulation, and the layer occupancies
respect the cuts between updates.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import HierarchicalMatrix
from repro.graphblas import Matrix, binary, coords, monoid

# A batch is a list of (row, col, value) triples over a small space.
batch_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1,
    max_size=25,
)
batches_strategy = st.lists(batch_strategy, min_size=1, max_size=8)
cuts_strategy = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3).map(
    lambda xs: sorted(xs)
)


def apply_updates(H, ref, batches):
    for batch in batches:
        rows = np.array([t[0] for t in batch], dtype=np.uint64)
        cols = np.array([t[1] for t in batch], dtype=np.uint64)
        vals = np.array([t[2] for t in batch], dtype=np.float64)
        H.update(rows, cols, vals)
        ref.build(rows, cols, vals, dup_op=binary.plus)


@settings(max_examples=50, deadline=None)
@given(batches_strategy, cuts_strategy)
def test_hierarchy_equals_flat_accumulation(batches, cuts):
    H = HierarchicalMatrix(cuts=cuts)
    ref = Matrix("fp64", 2**64, 2**64)
    apply_updates(H, ref, batches)
    assert H.materialize().isclose(ref, abs_tol=1e-9)


@settings(max_examples=50, deadline=None)
@given(batches_strategy, cuts_strategy)
def test_layer_occupancy_respects_cuts_after_each_update(batches, cuts):
    """After every update call, every non-terminal layer holds at most c_i entries
    (the cascade fires whenever the cut is exceeded)."""
    H = HierarchicalMatrix(cuts=cuts)
    for batch in batches:
        rows = np.array([t[0] for t in batch], dtype=np.uint64)
        cols = np.array([t[1] for t in batch], dtype=np.uint64)
        vals = np.ones(len(batch))
        H.update(rows, cols, vals)
        for level, cut in enumerate(H.cuts):
            assert H.layer_nvals[level] <= cut


@settings(max_examples=50, deadline=None)
@given(batches_strategy, cuts_strategy)
def test_flush_equals_materialize(batches, cuts):
    H = HierarchicalMatrix(cuts=cuts)
    ref = Matrix("fp64", 2**64, 2**64)
    apply_updates(H, ref, batches)
    materialised = H.materialize()
    flushed = H.flush()
    assert flushed.isclose(materialised, abs_tol=1e-9)
    assert flushed.isclose(ref, abs_tol=1e-9)


@settings(max_examples=50, deadline=None)
@given(batches_strategy, cuts_strategy)
def test_total_updates_counted_exactly(batches, cuts):
    H = HierarchicalMatrix(cuts=cuts)
    expected = 0
    for batch in batches:
        rows = np.array([t[0] for t in batch], dtype=np.uint64)
        cols = np.array([t[1] for t in batch], dtype=np.uint64)
        H.update(rows, cols, np.ones(len(batch)))
        expected += len(batch)
    assert H.stats.total_updates == expected
    assert H.stats.element_writes[0] == expected


@settings(max_examples=30, deadline=None)
@given(batches_strategy, cuts_strategy, cuts_strategy)
def test_result_independent_of_cut_choice(batches, cuts_a, cuts_b):
    """Two hierarchies with different cuts see the same stream -> identical matrices."""
    Ha = HierarchicalMatrix(cuts=cuts_a)
    Hb = HierarchicalMatrix(cuts=cuts_b)
    for batch in batches:
        rows = np.array([t[0] for t in batch], dtype=np.uint64)
        cols = np.array([t[1] for t in batch], dtype=np.uint64)
        vals = np.array([t[2] for t in batch], dtype=np.float64)
        Ha.update(rows, cols, vals)
        Hb.update(rows, cols, vals)
    assert Ha.materialize().isclose(Hb.materialize(), abs_tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(batches_strategy)
def test_get_matches_materialized_elements(batches):
    H = HierarchicalMatrix(cuts=[3, 9])
    seen = {}
    for batch in batches:
        rows = np.array([t[0] for t in batch], dtype=np.uint64)
        cols = np.array([t[1] for t in batch], dtype=np.uint64)
        vals = np.array([t[2] for t in batch], dtype=np.float64)
        H.update(rows, cols, vals)
        for r, c, v in batch:
            seen[(r, c)] = seen.get((r, c), 0.0) + v
    for (r, c), v in list(seen.items())[:20]:
        assert H.get(r, c) == v


# --------------------------------------------------------------------------- #
# the packed-key spine: every entry point, against both references
# --------------------------------------------------------------------------- #

# Heavy duplication (long runs inside one flush window) and values on both
# sides of the uniform-window guard: countable integers, an integer whose
# n * s leaves 2**53 after a few additions, inexact decimals, negatives.
spine_coordinate = st.sampled_from([0, 1, 2, 2**32 - 1])
EXACT_VALUES = [1.0, 3.0, -2.0, float(2**20)]  # every partial sum stays an exact integer
ANY_VALUES = EXACT_VALUES + [0.1, 0.3, float(2**50), float(2**52 + 1)]
# "read" queries the tracker between batches (its pairs and values are unused).
KINDS = ["scalar", "uniform", "mixed", "packed_scalar", "packed_array", "read"]


def spine_batches(values, kinds=KINDS, coordinate=spine_coordinate):
    value = st.sampled_from(values)
    pairs = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=30)
    return st.lists(
        st.tuples(st.sampled_from(kinds), pairs, st.lists(value, min_size=3, max_size=3)),
        min_size=1,
        max_size=12,
    )


def batch_arrays(batch):
    """``(rows, cols, per-entry values)`` of one generated batch."""
    kind, pairs, values = batch
    rows = np.array([p[0] for p in pairs], dtype=np.uint64)
    cols = np.array([p[1] for p in pairs], dtype=np.uint64)
    if kind in ("mixed", "packed_array"):
        return rows, cols, np.resize(np.array(values, dtype=np.float64), rows.size)
    return rows, cols, np.full(rows.size, values[0])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def read_tracker(H, flat=None):
    """Query the tracker mid-stream: layer 1 must not flush, and with a flat
    reference fed the same batches (exact values) the answers are its own."""
    inc, pending = H.incremental, H.layers[0].has_pending
    total = inc.total()
    nnz = inc.nnz() if inc.fan_supported else None
    assert H.layers[0].has_pending == pending  # reads never flush layer 1
    if flat is not None:
        assert bits(total) == bits(flat.reduce_scalar(monoid.plus))
        assert nnz in (None, flat.nvals)


def feed(H, batches, flat=None):
    """Drive one stream through update(), update_packed() and tracker reads.

    ``flat``, when given, is built batch by batch alongside and checked at
    every read.
    """
    for batch in batches:
        kind = batch[0]
        if kind == "read":
            read_tracker(H, flat)
            continue
        rows, cols, vals = batch_arrays(batch)
        if flat is not None:
            flat.build(rows, cols, vals)
        if kind.endswith("scalar"):
            vals = batch[2][0]  # a scalar stays a scalar all the way to the arena
        if kind.startswith("packed"):
            H.update_packed(coords.pack(rows, cols, coords.IPV4_SPEC), vals)
        else:
            H.update(rows, cols, vals)
    return H


def coo_bits(matrix):
    rows, cols, vals = matrix.to_coo()
    return rows, cols, vals.view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(spine_batches(ANY_VALUES), cuts_strategy)
def test_spine_is_bit_identical_to_the_dual_key_engine(batches, cuts):
    """Same cuts, same grouping: the keyed path may not change a single bit."""
    keyed = feed(HierarchicalMatrix(2**32, 2**32, cuts=cuts), batches)
    with coords.packing_disabled():
        reference = feed(HierarchicalMatrix(2**32, 2**32, cuts=cuts), batches)
        expected = coo_bits(reference.materialize())
    assert keyed.stats.cascades == reference.stats.cascades
    for got, want in zip(coo_bits(keyed.materialize()), expected):
        assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(spine_batches(EXACT_VALUES), cuts_strategy)
def test_spine_equals_flat_matrix_and_tracks_its_reductions(batches, cuts):
    """Exactly representable values: the hierarchy, a flat Matrix and the
    tracker's four vectors (after the keyed catch-up) all agree exactly —
    also at every read between batches."""
    flat = Matrix("fp64", 2**32, 2**32)
    H = feed(HierarchicalMatrix(2**32, 2**32, cuts=cuts), batches, flat)
    pending = H.layers[0].has_pending
    inc = H.incremental
    assert inc.row_traffic().isequal(flat.reduce_rowwise())
    assert inc.col_traffic().isequal(flat.reduce_columnwise())
    ones = flat.apply("one")
    assert inc.row_fan().isequal(ones.reduce_rowwise())
    assert inc.col_fan().isequal(ones.reduce_columnwise())
    assert inc.nnz() == flat.nvals
    assert H.layers[0].has_pending == pending  # reads never flush layer 1
    assert H.materialize().isequal(flat, check_dtype=True)


wide_coordinate = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])


@settings(max_examples=100, deadline=None)
@given(
    spine_batches(EXACT_VALUES, ["scalar", "mixed", "read"], wide_coordinate),
    cuts_strategy,
)
def test_traffic_only_tracker_keeps_its_place_through_demotion(batches, cuts):
    """A 2^64 shape has no key, so its tracker is traffic-only.  A read takes
    part of layer 1's keyed window, the next batch demotes layer 1 to three
    columns, and the rest of the stream keeps reading the same window."""
    H = HierarchicalMatrix(cuts=[c + 2 for c in cuts])  # the prefix never flushes
    flat = Matrix("fp64", 2**64, 2**64)
    feed(H, [("scalar", [(0, 1)], [1.0] * 3), ("read", [], [])], flat)
    feed(H, [("mixed", [(2**63, 5)], [3.0] * 3)], flat)
    assert H.layers[0].key_spec is None and H.layers[0].has_pending
    assert H.incremental._taken == 1
    feed(H, batches, flat)
    inc = H.incremental
    assert inc.supported and not inc.fan_supported
    assert inc.row_traffic().isequal(flat.reduce_rowwise())
    assert inc.col_traffic().isequal(flat.reduce_columnwise())
    assert bits(inc.total()) == bits(flat.reduce_scalar(monoid.plus))
    assert H.materialize().isequal(flat, check_dtype=True)
