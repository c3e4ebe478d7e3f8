"""Cut schedules on the paper's stream shape: the tunability sweep as oracles.

The paper says the cut parameters "are easily tunable".  Tuning only helps if
every schedule is a pure performance transformation, so this module streams
one power-law workload (100,000 updates in batches of 2,000) through the
schedules a tuning sweep visits — first cuts from far below the batch size
to far above the distinct-entry count, and two to five levels — and checks
each against exact oracles: the flat accumulation, the set model of the cut
rule, and the ``UpdateStats`` write accounting.  Rates are measured by
``python -m bench``; nothing here reads a clock.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.analytics import degree_summary
from repro.core import GeometricCuts, HierarchicalMatrix
from repro.graphblas import Matrix, binary, coords
from repro.workloads import paper_stream

from .test_hierarchical import cascade_model

N_UPDATES = 100_000
N_BATCHES = 50
DIM = 2**32

#: First cuts around the 2,000-entry batch: every batch cascades at 256,
#: a handful of cascades at 16,384, none at all from 131,072 up.
FIRST_CUTS = [256, 2_048, 16_384, 131_072, 1_048_576]
#: Level counts at a fixed first cut and ratio.
LEVEL_COUNTS = [2, 3, 4, 5]

SCHEDULES = {
    **{
        f"first_cut={fc}": GeometricCuts(first_cut=fc, ratio=8, nlevels_total=4)
        for fc in FIRST_CUTS
    },
    **{
        f"levels={n}": GeometricCuts(first_cut=2_048, ratio=16, nlevels_total=n)
        for n in LEVEL_COUNTS
    },
}

schedules = pytest.mark.parametrize("name", list(SCHEDULES))


@functools.lru_cache(maxsize=None)
def stream():
    return [
        (b.rows, b.cols, b.values)
        for b in paper_stream(total_entries=N_UPDATES, nbatches=N_BATCHES, seed=0)
    ]


@functools.lru_cache(maxsize=None)
def flat_reference() -> Matrix:
    ref = Matrix("fp64", DIM, DIM)
    for rows, cols, vals in stream():
        ref.build(rows, cols, vals, dup_op=binary.plus)
    return ref


def ingest(name: str, **kwargs) -> HierarchicalMatrix:
    H = HierarchicalMatrix(DIM, DIM, policy=SCHEDULES[name], **kwargs)
    for rows, cols, vals in stream():
        H.update(rows, cols, vals)
    return H.wait()


@functools.lru_cache(maxsize=None)
def ingested(name: str) -> HierarchicalMatrix:
    """One streamed hierarchy per schedule, shared by the read-only checks."""
    return ingest(name)


class TestCutSchedules:
    @schedules
    def test_policy_cuts_are_geometric(self, name):
        policy = SCHEDULES[name]
        H = ingested(name)
        assert H.cuts == tuple(
            policy.first_cut * policy.ratio**i for i in range(policy.nlevels_total - 1)
        )
        assert H.nlevels == policy.nlevels_total

    @schedules
    def test_matches_flat_accumulation(self, name):
        assert ingested(name).materialize().isequal(flat_reference())

    @schedules
    def test_cascades_match_set_model(self, name):
        H = ingested(name)
        batches = [set(zip(r.tolist(), c.tolist())) for r, c, _ in stream()]
        cascades, layer_nvals = cascade_model(list(H.cuts), batches)
        assert H.stats.cascades == cascades
        assert H.layer_nvals == layer_nvals

    @schedules
    def test_bounded_layers_hold_at_most_their_cut(self, name):
        H = ingested(name)
        for nvals, cut in zip(H.layer_nvals, H.cuts):
            assert nvals <= cut
        assert sum(H.layer_nvals) >= flat_reference().nvals

    @schedules
    def test_write_accounting(self, name):
        H = ingested(name)
        stats = H.stats
        assert stats.total_updates == N_UPDATES
        assert stats.update_calls == N_BATCHES
        assert stats.element_writes[0] == N_UPDATES
        # Only a cascade writes above layer 1, and each moves more than the
        # cut it overflowed; the unbounded last layer never cascades.
        for i, cut in enumerate(H.cuts):
            assert stats.element_writes[i + 1] >= stats.cascades[i] * (cut + 1)
            assert (stats.element_writes[i + 1] == 0) == (stats.cascades[i] == 0)
        assert stats.cascades[-1] == 0
        assert all(a >= b for a, b in zip(stats.cascades, stats.cascades[1:]))

    @schedules
    def test_fast_memory_fraction_reads_the_counters(self, name):
        stats = ingested(name).stats
        total = sum(stats.element_writes)
        assert stats.slow_memory_writes == stats.element_writes[-1]
        assert stats.fast_memory_fraction == pytest.approx(
            1.0 - stats.element_writes[-1] / total
        )
        assert 0.5 < stats.fast_memory_fraction <= 1.0

    @schedules
    def test_fallback_engine_cascades_identically(self, name):
        H = ingested(name)
        with coords.packing_disabled():
            G = ingest(name)
            assert G.materialize().isequal(H.materialize())
        assert G.stats.cascades == H.stats.cascades
        assert G.layer_nvals == H.layer_nvals

    @schedules
    def test_flush_collapses_into_the_top_layer(self, name):
        H = ingest(name)
        top = H.flush()
        assert top.isequal(flat_reference())
        assert all(n == 0 for n in H.layer_nvals[:-1])

    @schedules
    def test_incremental_summary_matches_materialized(self, name):
        H = ingest(name)
        # Leave a pending layer-1 tail, the steady streaming state.
        rows = np.arange(1, 201, dtype=np.uint64)
        H.update(rows, rows + 1, 1.0)
        assert H.layers[0].has_pending
        summary = degree_summary(H)
        assert H.layers[0].has_pending, "incremental stats must not force a flush"
        assert summary == degree_summary(H, materialized=True)
        assert summary["total_traffic"] == N_UPDATES + 200
