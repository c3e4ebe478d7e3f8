"""``engine_bulk`` and ``engine_trickle_reads``: one HierarchicalMatrix, one caller.

Closed loop, one caller.  ``engine_bulk`` streams 100,000-update batches, so
every update call flushes and cascades and the graphblas sort/collapse/merge
carries the cost; nothing is read until the stream ends.
``engine_trickle_reads`` streams 1,000-update batches (most calls only
append) and issues a ``degree_summary`` + ``top_sources`` pair after every
20th batch inside the clock, so per-call cost, the tracker and analytics
dominate, and work deferred to read time shows up as query latency.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from . import config, streams
from .harness import Ops, Repeat, collect_stages, ms, span_metrics
from .trace import Tracer, merged


def make_matrix():
    from repro.core import HierarchicalMatrix

    return HierarchicalMatrix(config.NROWS, config.NCOLS, config.DTYPE, cuts=list(config.CUTS))


def alloc_counters() -> Dict[str, int]:
    from repro.graphblas import arena, coords

    return {
        "graphblas.pack_calls": coords.pack_calls(),
        "graphblas.arena_grow_calls": arena.grow_calls(),
        "graphblas.arena_concat_calls": arena.concat_calls(),
    }


def alloc_delta(before: Dict[str, int]) -> Dict[str, int]:
    return {k: v - before[k] for k, v in alloc_counters().items()}


def _query_pair(matrix) -> None:
    from repro import analytics

    analytics.degree_summary(matrix)
    analytics.top_sources(matrix, config.TOP_K)


def rung_core(batches) -> float:
    """Ladder rung: the stream through one HierarchicalMatrix, no reads (upd/s)."""
    matrix = make_matrix()
    start = time.perf_counter()
    for r, c, v in batches:
        matrix.update(r, c, v)
    matrix.wait()
    return sum(b[0].size for b in batches) / (time.perf_counter() - start)


class EngineWorkload:
    def __init__(
        self,
        name: str,
        seed: int,
        tracer: Tracer,
        *,
        reads: bool,
        smoke: bool = False,
        make_matrix: Callable = make_matrix,
    ):
        self.name = name
        self.reads = reads  # trickle stream with in-stream query pairs, else bulk and unread
        self.seed, self.smoke, self.tracer = seed, smoke, tracer
        self.make_matrix = make_matrix
        self.steady = config.STEADY_QUERIES.get(name, 0)
        self.stream: Optional[streams.Stream] = None
        self.ref: Optional[streams.Reference] = None
        self.phases: Dict[str, list] = {}

    def setup(self) -> None:
        self.stream = streams.generate("trickle" if self.reads else "bulk", self.seed, smoke=self.smoke)
        self.ref = streams.reference(self.stream)
        self.probes = streams.probe_windows(self.stream)

    def warmup(self) -> bool:
        """One full pass whose materialised result must equal the reference bit for bit."""
        matrix = self.make_matrix()
        for i, (r, c, v) in enumerate(self.stream.batches, 1):
            matrix.update(r, c, v)
            if self.reads and i % config.QUERY_EVERY == 0:
                _query_pair(matrix)
        matrix.wait()
        return streams.coo_matches(self.ref, *matrix.to_coo())

    def repeat(self, traced: bool) -> Repeat:
        from repro import analytics

        matrix = self.make_matrix()
        ops = Ops()
        queries, done = [], 0
        before = alloc_counters()
        self.tracer.enabled = traced
        start = time.perf_counter()
        for i, (r, c, v) in enumerate(self.stream.batches, 1):
            dt, _ = ops.timed(matrix.update, r, c, v)
            if dt is not None:
                done += r.size
            if self.reads and i % config.QUERY_EVERY == 0:
                dt, _ = ops.timed(_query_pair, matrix)
                if dt is not None:
                    queries.append(dt)
        dt, _ = ops.timed(matrix.wait)
        wall = time.perf_counter() - start
        if dt is None:
            done = 0  # the final barrier failed: nothing counts as durable
        run = collect_stages(self.tracer, self.phases, "run") if traced else {}
        allocs = alloc_delta(before)

        # After the clock: the first read pays whatever catch-up the stream
        # left behind; a traced pass times the tracker's share of it apart.
        catchup = 0.0
        if traced:
            with self.tracer.span("core.tracker_catchup"):
                catchup, _ = ops.timed(matrix.incremental.nnz)
        dt, summary = ops.timed(analytics.degree_summary, matrix)
        first = None if dt is None else (dt + (catchup or 0.0)) * 1e3
        for _ in range(self.steady):
            dt, _ = ops.timed(analytics.degree_summary, matrix)
            if dt is not None:
                queries.append(dt)
        correct = ops.check(summary is not None and streams.summary_matches(self.ref, summary))
        layer = self._layer(matrix, run, allocs, wall) if traced else {}

        acks = []
        for r, c, v in self.probes:
            ops.timed(matrix.update, r, c, v)
            dt, _ = ops.timed(matrix.wait)
            if dt is not None:
                acks.append(dt)
        return Repeat(
            wall, done, ms(acks), ms(queries), first, ops.attempted, ops.failed, correct, layer, run
        )

    def _layer(self, matrix, run, allocs, wall) -> Dict[str, float]:
        post = collect_stages(self.tracer, self.phases, "post")
        self.tracer.enabled = False
        layer = span_metrics(merged(run, post))
        layer.update(allocs)
        in_clock = span_metrics(run)
        layer["analytics.query_share"] = (
            in_clock["analytics.degree_summary_s"] + in_clock["analytics.top_sources_s"]
        ) / wall
        st, inc = matrix.stats, matrix.incremental
        layer["core.cascades_l1"], layer["core.cascades_l2"], layer["core.cascades_l3"] = st.cascades[:3]
        layer["core.element_writes_per_update"] = sum(st.element_writes) / max(st.total_updates, 1)
        layer["core.fast_memory_share"] = st.fast_memory_fraction
        layer["core.bytes_per_entry"] = matrix.memory_usage / max(self.ref.nnz, 1)
        layer["core.pending_capacity_bytes"] = matrix.memory_breakdown["pending_capacity_bytes"]
        layer["core.tracker_piggybacked_drains"] = inc.piggybacked_drains
        layer["core.tracker_run_merges"] = inc.run_merges
        layer["core.tracker_full_drains"] = inc.full_drains
        return layer

    def close(self) -> None:
        pass
