"""Headline A: single-instance streaming update rate.

The paper: "Hierarchical hypersparse matrices achieve over 1,000,000 updates
per second in a single instance."  This benchmark streams the paper's workload
(power-law edges in fixed-size batches) into one hierarchical hypersparse
matrix and into the flat baselines, and reports updates/second for each.

Expected shape (not absolute numbers): hierarchical GraphBLAS is the fastest,
flat GraphBLAS degrades as the accumulated matrix grows, and the D4M variants
sit well below their GraphBLAS counterparts because of string-key overhead.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.baselines import FlatD4MIngestor, FlatGraphBLASIngestor, HierarchicalD4MIngestor
from repro.core import HierarchicalMatrix
from repro.graphblas import coords
from repro.workloads import IngestSession, paper_stream

from .conftest import scaled, update_bench_json, write_report

pytestmark = pytest.mark.bench

#: Updates streamed per measured system (paper: 100,000,000 per process);
#: identity at the default REPRO_BENCH_SCALE, shrunk for smoke runs.
N_UPDATES = scaled(200_000, minimum=20_000)
N_BATCHES = 50
#: Much smaller stream for the slow D4M baselines so the harness stays quick.
N_UPDATES_D4M = scaled(10_000, minimum=5_000)
N_BATCHES_D4M = 10

#: Cuts scaled to this (laptop-sized) stream the same way the paper scales its
#: cuts to the cache hierarchy: the first layer holds ~2 batches, each later
#: layer 8x more, and the last layer is unbounded.
CUTS = [4_096, 32_768, 262_144]

_RESULTS = {}


def _stream(total, nbatches, seed=0):
    return paper_stream(total_entries=total, nbatches=nbatches, seed=seed)


def _ingest(make_ingestor, total, nbatches, repeats=3):
    # Warm-up pass on a throwaway instance so one-time costs (imports, string
    # table setup, allocator growth) don't land on whichever system runs
    # first, then best-of-N so scheduler noise in any single pass can't
    # scramble the rate ordering the shape assertions check.
    IngestSession(make_ingestor(), "warmup").run(_stream(1_000, 2, seed=99))
    best = None
    for _ in range(repeats):
        result = IngestSession(make_ingestor(), "bench").run(_stream(total, nbatches))
        if best is None or result.updates_per_second > best.updates_per_second:
            best = result
    return best


class TestSingleInstanceRates:
    def test_hierarchical_graphblas(self, benchmark):
        result = benchmark.pedantic(
            _ingest,
            args=(lambda: HierarchicalMatrix(2**32, 2**32, "fp64", cuts=CUTS), N_UPDATES, N_BATCHES),
            rounds=1,
            iterations=1,
        )
        _RESULTS["hierarchical GraphBLAS"] = result.updates_per_second
        assert result.total_updates == N_UPDATES

    def test_flat_graphblas(self, benchmark):
        result = benchmark.pedantic(
            _ingest,
            args=(lambda: FlatGraphBLASIngestor(2**32, 2**32), N_UPDATES, N_BATCHES),
            rounds=1,
            iterations=1,
        )
        _RESULTS["flat GraphBLAS"] = result.updates_per_second

    def test_hierarchical_d4m(self, benchmark):
        # The D4M streams are tiny (milliseconds per pass) and the
        # hierarchical-vs-flat D4M margin is only ~10%, so take best-of-5 to
        # keep the zz shape assertion out of scheduler noise.
        result = benchmark.pedantic(
            _ingest,
            args=(lambda: HierarchicalD4MIngestor(cuts=[1000, 10_000, 100_000]), N_UPDATES_D4M, N_BATCHES_D4M, 5),
            rounds=1,
            iterations=1,
        )
        _RESULTS["hierarchical D4M"] = result.updates_per_second

    def test_flat_d4m(self, benchmark):
        result = benchmark.pedantic(
            _ingest,
            args=(lambda: FlatD4MIngestor(), N_UPDATES_D4M, N_BATCHES_D4M, 5),
            rounds=1,
            iterations=1,
        )
        _RESULTS["flat D4M"] = result.updates_per_second

    def test_zz_report_and_shape(self, benchmark, results_dir):
        """Emit the headline-A table and check the expected ordering."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep visible under --benchmark-only
        assert "hierarchical GraphBLAS" in _RESULTS, "rate benchmarks must run first"
        lines = [
            "Headline A: single-instance streaming update rate",
            f"(workload: power-law stream, {N_UPDATES:,} updates for GraphBLAS systems, "
            f"{N_UPDATES_D4M:,} for D4M systems)",
            "",
            f"{'system':<28} {'updates/s':>15}",
            "-" * 44,
        ]
        for system, rate in sorted(_RESULTS.items(), key=lambda kv: -kv[1]):
            lines.append(f"{system:<28} {rate:>15,.0f}")
        lines += [
            "",
            "paper reference: > 1,000,000 updates/s per instance (SuiteSparse C library)",
        ]
        write_report(results_dir, "headline_a_single_instance", lines)

        update_bench_json(
            results_dir,
            "single_instance",
            {
                "n_updates": N_UPDATES,
                "n_updates_d4m": N_UPDATES_D4M,
                "cuts": CUTS,
                "updates_per_second": {k: round(v, 1) for k, v in _RESULTS.items()},
            },
        )

        # Shape assertions from the paper's comparison.
        assert _RESULTS["hierarchical GraphBLAS"] > _RESULTS["flat GraphBLAS"]
        assert _RESULTS["hierarchical GraphBLAS"] > _RESULTS["hierarchical D4M"]
        assert _RESULTS["hierarchical D4M"] > _RESULTS["flat D4M"]
        # Pure-Python substrate still clears 100k updates/s; the paper's 1e6/s
        # needed the C library, so we assert the order of magnitude only.
        assert _RESULTS["hierarchical GraphBLAS"] > 1e5


class TestDeferredPackedSpeedup:
    """Before/after comparison for this PR's streaming-insert optimisation.

    "Before" emulates the pre-packed engine exactly: packing disabled (every
    kernel on the dual-key lexsort path) and ``defer_ingest=False`` (eager
    sort + merge on every batch).  "After" is the default configuration:
    packed single-key kernels plus deferred layer-1 ingest.  Both ingest the
    identical stream and must produce the identical logical matrix.
    """

    def test_deferred_packed_vs_eager_lexsort(self, benchmark, results_dir):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        # The incremental-reduction tracker (PR 3) adds the same constant
        # per-batch cost to both configurations; it is disabled here so the
        # ratio isolates the PR-1 mechanism under measurement (packed keys +
        # deferred ingest).  The headline rate benchmarks above keep the
        # default configuration, tracker included.
        make_new = lambda: HierarchicalMatrix(
            2**32, 2**32, "fp64", cuts=CUTS, track_reductions=False
        )
        make_old = lambda: HierarchicalMatrix(
            2**32, 2**32, "fp64", cuts=CUTS, defer_ingest=False,
            track_reductions=False,
        )
        new_result = _ingest(make_new, N_UPDATES, N_BATCHES)
        with coords.packing_disabled():
            old_result = _ingest(make_old, N_UPDATES, N_BATCHES)
        speedup = new_result.updates_per_second / old_result.updates_per_second

        # Identical logical matrices: the optimisation is purely mechanical.
        check_new, check_old = make_new(), make_old()
        for batch in _stream(20_000, 10, seed=3):
            check_new.update(batch.rows, batch.cols, batch.values)
        with coords.packing_disabled():
            for batch in _stream(20_000, 10, seed=3):
                check_old.update(batch.rows, batch.cols, batch.values)
            assert check_new.materialize().isequal(check_old.materialize())

        lines = [
            "Streaming-insert hot path: packed + deferred vs pre-PR eager lexsort",
            f"(workload: power-law stream, {N_UPDATES:,} updates in {N_BATCHES} batches)",
            "",
            f"{'configuration':<36} {'updates/s':>15}",
            "-" * 52,
            f"{'packed kernels + deferred ingest':<36} {new_result.updates_per_second:>15,.0f}",
            f"{'lexsort kernels + eager ingest':<36} {old_result.updates_per_second:>15,.0f}",
            "",
            f"speedup: {speedup:.2f}x (recorded, not asserted)",
        ]
        write_report(results_dir, "insert_rate_speedup", lines)
        update_bench_json(
            results_dir,
            "insert_rate",
            {
                "n_updates": N_UPDATES,
                "n_batches": N_BATCHES,
                "cuts": CUTS,
                "packed_deferred_updates_per_second": round(new_result.updates_per_second, 1),
                "eager_lexsort_updates_per_second": round(old_result.updates_per_second, 1),
                "speedup": round(speedup, 3),
            },
        )
