"""Benchmark: incremental stats queries versus materialize-based analytics.

The tentpole claim of the incremental reduction subsystem is that the
monitoring analyses the paper motivates traffic matrices with (degree
summaries, supernode top-K) can be served *during* streaming — from the
running reduction vectors, without materialising the hierarchy and without
forcing the deferred layer-1 flush.  This harness measures exactly that:

* a hierarchical matrix is streamed to a state with populated layers *and* a
  pending layer-1 tail (the steady streaming state);
* the first incremental ``degree_summary`` query is timed (it pays the
  amortised catch-up of the deferred reduction buffers) and asserted not to
  have flushed the pending tail;
* the first materialize-based query is timed (it pays the flush plus the full
  layer merge), then both paths are timed in steady state (best-of-3);
* the same comparison runs against a sharded matrix (cross-shard incremental
  merge versus cross-shard materialize).

Both paths are asserted to return identical statistics before anything is
recorded.  Results land in the ``analytics`` section of
``BENCH_kernels.json`` next to the kernel and sharding trajectories.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analytics import degree_summary, out_degree, supernode_report
from repro.core import HierarchicalMatrix
from repro.distributed import ShardedHierarchicalMatrix
from repro.workloads import paper_stream

from .conftest import scaled, update_bench_json, write_report

pytestmark = pytest.mark.bench

TOTAL = scaled(300_000, minimum=30_000)
BATCH = max(TOTAL // 30, 1_000)
CUTS = [2 ** 13, 2 ** 16, 2 ** 19]

_results = {}


def _stream_into(matrix):
    nbatches = max(TOTAL // BATCH, 1)
    for batch in paper_stream(total_entries=TOTAL, nbatches=nbatches, seed=23):
        matrix.update(batch.rows, batch.cols, batch.values)


def _ensure_pending(matrix: HierarchicalMatrix) -> None:
    """Leave the matrix in the steady streaming state: a pending layer-1 tail."""
    rng = np.random.default_rng(99)
    for _ in range(3):
        if matrix.layers[0].has_pending:
            return
        rows = rng.integers(0, 2 ** 22, 200, dtype=np.uint64)
        matrix.update(rows, rows + 1, np.ones(200))
    assert matrix.layers[0].has_pending


def _best_of(n, fn):
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


class TestAnalyticsLatency:
    def test_single_instance(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        H = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        _stream_into(H)
        _ensure_pending(H)

        # Incremental first: pays the deferred-reduction catch-up, must not
        # flush the matrix.
        inc_summary, inc_first = _timed(lambda: degree_summary(H))
        assert H.layers[0].has_pending, "incremental stats must not force a flush"
        inc_steady = _best_of(3, lambda: degree_summary(H))
        inc_topk = _best_of(3, lambda: supernode_report(H, 10))

        # Materialize path second: its first query pays the flush + layer merge.
        mat_summary, mat_first = _timed(lambda: degree_summary(H, materialized=True))
        mat_steady = _best_of(3, lambda: degree_summary(H, materialized=True))
        mat_topk = _best_of(3, lambda: supernode_report(H, 10, materialized=True))

        assert inc_summary == mat_summary
        assert supernode_report(H, 10) == supernode_report(H, 10, materialized=True)
        assert out_degree(H, materialized=False).isequal(
            out_degree(H, materialized=True)
        )
        _results["single"] = {
            "total_updates": TOTAL,
            "nnz": int(inc_summary["nnz"]),
            "first_query_incremental_s": round(inc_first, 6),
            "first_query_materialize_s": round(mat_first, 6),
            "steady_incremental_s": round(inc_steady, 6),
            "steady_materialize_s": round(mat_steady, 6),
            "topk_incremental_s": round(inc_topk, 6),
            "topk_materialize_s": round(mat_topk, 6),
            "speedup_first_query": round(mat_first / inc_first, 2) if inc_first else 0.0,
            "speedup_steady": round(mat_steady / inc_steady, 2) if inc_steady else 0.0,
        }

    def test_sharded(self, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        with ShardedHierarchicalMatrix(4, cuts=CUTS) as S:
            _stream_into(S)
            inc_summary, inc_first = _timed(lambda: degree_summary(S))
            inc_steady = _best_of(3, lambda: degree_summary(S))
            mat_summary, mat_first = _timed(lambda: degree_summary(S, materialized=True))
            mat_steady = _best_of(3, lambda: degree_summary(S, materialized=True))
            assert inc_summary == mat_summary
        _results["sharded"] = {
            "shards": 4,
            "total_updates": TOTAL,
            "first_query_incremental_s": round(inc_first, 6),
            "first_query_materialize_s": round(mat_first, 6),
            "steady_incremental_s": round(inc_steady, 6),
            "steady_materialize_s": round(mat_steady, 6),
            "speedup_first_query": round(mat_first / inc_first, 2) if inc_first else 0.0,
            "speedup_steady": round(mat_steady / inc_steady, 2) if inc_steady else 0.0,
        }

    def test_tracker_drain_piggyback(self, benchmark):
        """Regression guard for the tracker-drain overhead fix.

        The tracker keeps no copy of the layer-1 pending window: it reads
        that window in place, so every flush of a window no read has touched
        hands its already-sorted, duplicate-collapsed output to the tracker
        as an O(1) stashed run.  Pure streaming must therefore never queue a
        raw window slice (``full_drains == 0`` — catch-ups merge
        pre-collapsed runs).  The tracked/untracked time ratio is recorded,
        not asserted: the exact counters are the regression guard.
        """
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        nbatches = max(TOTAL // BATCH, 1)
        batches = [
            (b.rows, b.cols, b.values)
            for b in paper_stream(total_entries=TOTAL, nbatches=nbatches, seed=23)
        ]

        tracked = HierarchicalMatrix(2 ** 32, 2 ** 32, cuts=CUTS)
        untracked = HierarchicalMatrix(
            2 ** 32, 2 ** 32, cuts=CUTS, track_reductions=False
        )
        start = time.perf_counter()
        for rows, cols, vals in batches:
            untracked.update(rows, cols, vals)
        untracked_s = time.perf_counter() - start
        start = time.perf_counter()
        for rows, cols, vals in batches:
            tracked.update(rows, cols, vals)
        tracked_s = time.perf_counter() - start

        inc = tracked.incremental
        # Streaming alone: every window rode a flush; no raw-triple sort.
        assert inc.piggybacked_drains > 0
        assert inc.full_drains == 0
        # A mid-window query takes the raw window read so far (once, plus
        # once more if the flush below found an untaken tail), then the next
        # window starts untouched and piggybacking resumes.
        degree_summary(tracked)
        tracked.flush()  # ends the partly taken window
        full_after_query = inc.full_drains
        assert full_after_query <= 2
        before = inc.piggybacked_drains
        for rows, cols, vals in batches[:5]:
            tracked.update(rows, cols, vals)
        tracked.flush()
        assert inc.piggybacked_drains > before
        assert inc.full_drains == full_after_query

        overhead = tracked_s / untracked_s if untracked_s > 0 else 1.0
        _results["piggyback"] = {
            "total_updates": TOTAL,
            "tracked_ingest_s": round(tracked_s, 6),
            "untracked_ingest_s": round(untracked_s, 6),
            "tracking_overhead": round(overhead, 3),
            "piggybacked_drains": int(inc.piggybacked_drains),
            "run_merges": int(inc.run_merges),
            "full_drains": int(inc.full_drains),
        }

    def test_zz_report(self, benchmark, results_dir):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        assert "single" in _results and "sharded" in _results
        assert "piggyback" in _results
        s = _results["single"]
        d = _results["sharded"]
        p = _results["piggyback"]
        lines = [
            f"Analytics query latency: incremental vs materialize "
            f"({TOTAL:,} updates, cuts={CUTS})",
            "",
            f"{'configuration':<28} {'first query':>14} {'steady state':>14}",
            "-" * 58,
            f"{'single, incremental':<28} {s['first_query_incremental_s']:>12.6f} s "
            f"{s['steady_incremental_s']:>12.6f} s",
            f"{'single, materialize':<28} {s['first_query_materialize_s']:>12.6f} s "
            f"{s['steady_materialize_s']:>12.6f} s",
            f"{'single speedup':<28} {s['speedup_first_query']:>13.2f}x "
            f"{s['speedup_steady']:>13.2f}x",
            f"{'sharded(4), incremental':<28} {d['first_query_incremental_s']:>12.6f} s "
            f"{d['steady_incremental_s']:>12.6f} s",
            f"{'sharded(4), materialize':<28} {d['first_query_materialize_s']:>12.6f} s "
            f"{d['steady_materialize_s']:>12.6f} s",
            f"{'sharded speedup':<28} {d['speedup_first_query']:>13.2f}x "
            f"{d['speedup_steady']:>13.2f}x",
            "",
            "first query includes each path's one-time catch-up (deferred",
            "reduction drain vs forced flush + layer merge); the incremental",
            "path is asserted to leave the layer-1 pending buffer untouched.",
            "",
            f"tracker ingest overhead:     {p['tracking_overhead']:.3f}x "
            f"(tracked {p['tracked_ingest_s']:.3f}s vs untracked "
            f"{p['untracked_ingest_s']:.3f}s)",
            f"tracker drains:              {p['piggybacked_drains']} piggybacked "
            f"on layer-1 flushes, {p['run_merges']} pre-collapsed catch-ups, "
            f"{p['full_drains']} raw sorts",
        ]
        write_report(results_dir, "analytics_latency", lines)
        update_bench_json(
            results_dir,
            "analytics",
            {"cuts": CUTS, "single": s, "sharded": d, "piggyback": p},
        )
