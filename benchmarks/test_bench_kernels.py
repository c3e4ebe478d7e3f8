"""Microbenchmarks of the GraphBLAS kernels underneath the cascade (Fig. 1 support).

Figure 1 argues that the cascade works because adding a small matrix into a
small matrix is cheap while adding into a large matrix is expensive (it
rewrites the large operand).  These microbenchmarks measure exactly that: the
cost of ``A += B`` as a function of ``nnz(A)`` for fixed ``nnz(B)``, plus the
cost of the build/dedup kernel — the two operations that dominate streaming
ingest.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import HierarchicalMatrix
from repro.graphblas import Matrix, arena, binary, coords
from repro.graphblas import _kernels as K
from repro.graphblas.io import random_hypersparse
from repro.workloads import paper_stream

from .conftest import scaled, update_bench_json, write_report

pytestmark = pytest.mark.bench

BATCH_NNZ = 10_000
ACCUMULATED_SIZES = [10_000, 100_000, 1_000_000]

_timings = {}
_packed_vs_fallback = {}
_arena_results = {}


def _interleaved_best(fn_a, fn_b, repeats=3):
    """Interleaved best-of-N of two competitors (first round warms caches).

    Interleaving A/B/A/B instead of AAA/BBB keeps slow drifts of a shared
    runner (thermal, noisy neighbours) from landing entirely on one side.
    """
    fn_a()
    fn_b()
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def _best_of(fn, repeats=3):
    """Best-of-N wall-clock seconds for ``fn()`` (first call warms caches)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_both_paths(name, fn):
    """Time ``fn`` on the packed engine and the lexsort fallback engine."""
    packed = _best_of(fn)
    with coords.packing_disabled():
        fallback = _best_of(fn)
    _packed_vs_fallback[name] = {
        "packed_seconds": packed,
        "lexsort_seconds": fallback,
        "speedup": fallback / packed if packed > 0 else float("inf"),
    }
    return packed, fallback


@pytest.fixture(scope="module")
def batch_matrix():
    return random_hypersparse(BATCH_NNZ, seed=1)


class TestUnionAddCost:
    @pytest.mark.parametrize("accumulated", ACCUMULATED_SIZES)
    def test_add_batch_into_accumulated(self, benchmark, accumulated, batch_matrix):
        """Cost of one cascade step: merge a 10k-entry layer into a larger layer."""
        target = random_hypersparse(accumulated, seed=2)

        def merge():
            target.dup().update(batch_matrix, accum=binary.plus)

        benchmark(merge)
        _timings[accumulated] = benchmark.stats.stats.mean

    def test_zz_growth_report(self, benchmark, results_dir):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep visible under --benchmark-only
        assert len(_timings) == len(ACCUMULATED_SIZES)
        lines = [
            "Kernel microbenchmark: cost of A += B with nnz(B)=10,000",
            "",
            f"{'nnz(A)':>12} {'seconds per merge':>20}",
            "-" * 34,
        ]
        for nnz, seconds in sorted(_timings.items()):
            lines.append(f"{nnz:>12,} {seconds:>20.6f}")
        grows = _timings[ACCUMULATED_SIZES[-1]] > _timings[ACCUMULATED_SIZES[0]]
        lines += [
            "",
            "expected shape: merge cost grows with nnz(A) — the reason updates must be",
            "performed in the smallest layer (Fig. 1).",
            f"largest merge slower than smallest: {grows} (recorded, not asserted)",
        ]
        write_report(results_dir, "kernel_merge_cost", lines)


class TestBuildKernel:
    def test_build_batch_throughput(self, benchmark):
        """Throughput of the duplicate-collapsing build kernel on one batch."""
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2**32, 100_000, dtype=np.uint64)
        cols = rng.integers(0, 2**32, 100_000, dtype=np.uint64)
        vals = np.ones(100_000)

        def build():
            Matrix("fp64", 2**32, 2**32).build(rows, cols, vals)

        benchmark(build)

    def test_setelement_pending_throughput(self, benchmark):
        """Scalar-insert path: pending-tuple appends plus one final merge."""
        def inserts():
            A = Matrix("fp64", 2**32, 2**32)
            for i in range(2_000):
                A.setElement(i * 7, i * 13, 1.0)
            A.wait()
            return A

        result = benchmark(inserts)
        assert result.nvals == 2_000


class TestPackedVsLexsort:
    """Packed single-key engine vs the dual-key lexsort fallback.

    Each test runs the same kernel workload on both engines, asserts the
    results are bit-identical, and records the timings; the zz report writes
    the packed/fallback trajectory into BENCH_kernels.json.
    """

    N = scaled(200_000, minimum=20_000)
    N_QUERIES = scaled(10_000, minimum=10_000)

    @pytest.fixture(scope="class")
    def triples(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 2**32, self.N, dtype=np.uint64)
        cols = rng.integers(0, 2**32, self.N, dtype=np.uint64)
        vals = rng.normal(size=self.N)
        return rows, cols, vals

    def test_build_triples_packed_vs_fallback(self, benchmark, triples):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        rows, cols, vals = triples
        _time_both_paths(
            "build_triples", lambda: K.build_triples(rows, cols, vals, binary.plus)
        )
        packed_out = K.build_triples(rows, cols, vals, binary.plus)
        with coords.packing_disabled():
            fallback_out = K.build_triples(rows, cols, vals, binary.plus)
        for p, f in zip(packed_out, fallback_out):
            assert np.array_equal(p, f)

    def test_union_merge_packed_vs_fallback(self, benchmark, triples):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        rows, cols, vals = triples
        half = self.N // 2
        a = K.build_triples(rows[:half], cols[:half], vals[:half], binary.plus)
        b = K.build_triples(rows[half:], cols[half:], vals[half:], binary.plus)
        _time_both_paths("union_merge", lambda: K.union_merge(a, b, binary.plus))
        packed_out = K.union_merge(a, b, binary.plus)
        with coords.packing_disabled():
            fallback_out = K.union_merge(a, b, binary.plus)
        for p, f in zip(packed_out, fallback_out):
            assert np.array_equal(p, f)

    def test_search_sorted_packed_vs_fallback(self, benchmark, triples):
        """Batched point queries: one binary search, no per-query Python loop."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        rows, cols, vals = triples
        srows, scols, _ = K.build_triples(rows, cols, vals, binary.plus)
        rng = np.random.default_rng(13)
        # Half the queries hit stored coordinates, half miss.
        pick = rng.integers(0, srows.size, self.N_QUERIES // 2)
        qr = np.concatenate(
            [srows[pick], rng.integers(0, 2**32, self.N_QUERIES // 2, dtype=np.uint64)]
        )
        qc = np.concatenate(
            [scols[pick], rng.integers(0, 2**32, self.N_QUERIES // 2, dtype=np.uint64)]
        )
        _time_both_paths(
            "search_sorted_coo", lambda: K.search_sorted_coo(srows, scols, qr, qc)
        )
        packed_out = K.search_sorted_coo(srows, scols, qr, qc)
        with coords.packing_disabled():
            fallback_out = K.search_sorted_coo(srows, scols, qr, qc)
        assert np.array_equal(packed_out, fallback_out)
        assert (packed_out[: self.N_QUERIES // 2] >= 0).all()

    def test_zz_packed_report(self, benchmark, results_dir):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert len(_packed_vs_fallback) == 3
        lines = [
            f"Packed-coordinate engine vs lexsort fallback (n={self.N:,} triples, "
            f"{self.N_QUERIES:,} point queries)",
            "",
            f"{'kernel':<20} {'packed s':>12} {'lexsort s':>12} {'speedup':>9}",
            "-" * 56,
        ]
        for name, t in _packed_vs_fallback.items():
            lines.append(
                f"{name:<20} {t['packed_seconds']:>12.6f} "
                f"{t['lexsort_seconds']:>12.6f} {t['speedup']:>8.2f}x"
            )
        lines += [
            "",
            "both engines produce bit-identical triples (asserted above); the",
            "packed path is the default whenever coordinates fit a 64-bit split.",
        ]
        write_report(results_dir, "kernel_packed_vs_lexsort", lines)
        update_bench_json(
            results_dir,
            "kernels",
            {
                "n_triples": self.N,
                "n_queries": self.N_QUERIES,
                "packed_vs_fallback": {
                    name: {k: round(v, 6) for k, v in t.items()}
                    for name, t in _packed_vs_fallback.items()
                },
            },
        )


class TestArenaIngest:
    """Preallocated pending arenas: steady-state regrowth and tracker cost.

    Matrix and tracker buffers live across windows, so the arena runs warm:
    appends land in already-reserved storage, flushes read zero-copy views,
    and ``reset`` keeps the capacity for the next window.
    """

    LARGE = 1_000_000
    NBATCHES = 100
    TRACKER_CUTS = [2**13, 2**16, 2**19]

    def test_steady_state_flushes_never_concatenate(self, benchmark):
        """Warm arena windows: zero further growth."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        M = Matrix("fp64", 2**32, 2**32)
        rng = np.random.default_rng(3)
        grow_after_warmup = None
        for window in range(12):
            for _ in range(2):  # two lazy batches per window
                rows = rng.integers(0, 2**32, 5_000, dtype=np.uint64)
                cols = rng.integers(0, 2**32, 5_000, dtype=np.uint64)
                M.build(rows, cols, np.ones(5_000), lazy=True)
            M.wait()
            if window == 0:
                grow_after_warmup = arena.grow_calls()
        assert arena.grow_calls() == grow_after_warmup, (
            "a reset arena keeps its capacity: later windows must not regrow"
        )

    def test_growth_ladder_is_geometric(self, benchmark):
        """Filling N entries costs at most one growth per capacity doubling."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        pend = arena.PendingArena(1)
        target = 1 << 20
        chunk = np.arange(4096, dtype=np.uint64)
        while pend.used < target:
            pend.append(chunk)
        doublings = int(np.ceil(np.log2(pend.capacity / arena.MIN_CAPACITY)))
        assert pend.grow_count <= doublings, (
            f"{pend.grow_count} growths to reach capacity {pend.capacity} "
            f"(geometric ladder allows {doublings})"
        )

    def test_tracked_overhead_at_1m(self, benchmark):
        """Reduction tracking at 1M entries: the ratio is recorded, not asserted."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        batches = [
            (b.rows, b.cols, b.values)
            for b in paper_stream(
                total_entries=self.LARGE, nbatches=self.NBATCHES, seed=23
            )
        ]

        def stream(track):
            H = HierarchicalMatrix(
                2**32,
                2**32,
                cuts=self.TRACKER_CUTS,
                track_stats=False,
                track_reductions=track,
            )
            for rows, cols, vals in batches:
                H.update(rows, cols, vals)
            return H

        tracked_s, untracked_s = _interleaved_best(
            lambda: stream(True), lambda: stream(False), repeats=5
        )
        overhead = tracked_s / untracked_s if untracked_s > 0 else float("inf")
        _arena_results["tracker_1m"] = {
            "total_entries": self.LARGE,
            "nbatches": self.NBATCHES,
            "cuts": list(self.TRACKER_CUTS),
            "tracked_seconds": round(tracked_s, 6),
            "untracked_seconds": round(untracked_s, 6),
            "overhead": round(overhead, 4),
        }

    def test_zz_arena_report(self, benchmark, results_dir):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert "tracker_1m" in _arena_results
        tr = _arena_results["tracker_1m"]
        lines = [
            "Arena-backed ingest core: preallocated pending arenas",
            "",
            f"tracked-vs-untracked streaming at {tr['total_entries']:,} entries "
            f"(cuts {tr['cuts']}):",
            f"  tracked {tr['tracked_seconds']:.3f}s  untracked "
            f"{tr['untracked_seconds']:.3f}s  overhead {tr['overhead']:.2f}x",
            "",
            "the arena appends into preallocated columns and serves zero-copy",
            "views at flush.  the tracker absorbs each flush's collapsed",
            "(keys, values) window and settles them in one catch-up.",
        ]
        write_report(results_dir, "arena_sweep", lines)
        update_bench_json(results_dir, "arena", dict(_arena_results))
