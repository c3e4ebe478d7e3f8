"""``sharded_socket``: one routing parent, two socket-agent shard workers.

Closed loop, one routing parent.  The trickle stream is replayed three times
per pass into ``ShardedHierarchicalMatrix(2, use_processes=True,
transport="socket")`` over ``spawn_local_agents(2)``; ``finalize()`` is
inside the clock.  The serial parent (``ShardRouter.route``, frame encode,
socket send) and the workers' decode carry the cost; the engine work is
split across two other processes.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional

from . import config, streams
from .harness import Ops, Repeat, collect_stages, ms, span_metrics
from .trace import Tracer, merged
from .wl_engine import alloc_counters, alloc_delta


def make_sharded(**kwargs):
    from repro.distributed import ShardedHierarchicalMatrix

    return ShardedHierarchicalMatrix(
        config.SHARDS, config.NROWS, config.NCOLS, config.DTYPE, cuts=list(config.CUTS), **kwargs
    )


def rung_inproc(batches) -> float:
    """Ladder rung: the stream through an in-process 2-shard matrix (upd/s)."""
    with contextlib.closing(make_sharded()) as matrix:
        start = time.perf_counter()
        for r, c, v in batches:
            matrix.update(r, c, v)
        matrix.finalize()
        return sum(b[0].size for b in batches) / (time.perf_counter() - start)


def report_metrics(reports: List, updates_per_s: float) -> Dict[str, float]:
    """Per-shard worker reports -> the distributed/core counters they carry."""
    per_shard = [r.total_updates for r in reports]
    rate_sum = sum(r.updates_per_second for r in reports)
    cascades = [sum(r.cascades[i] for r in reports if len(r.cascades) > i) for i in range(3)]
    return {
        "distributed.worker_busy_s": sum(r.elapsed_seconds for r in reports),
        "distributed.rate_sum": rate_sum,
        "distributed.wall_over_sum": updates_per_s / rate_sum if rate_sum else 0.0,
        "distributed.shard_skew": max(per_shard) / (sum(per_shard) / len(per_shard)) if sum(per_shard) else 0.0,
        "core.cascades_l1": cascades[0],
        "core.cascades_l2": cascades[1],
        "core.cascades_l3": cascades[2],
    }


class ShardedSocketWorkload:
    name = "sharded_socket"

    def __init__(self, seed: int, tracer: Tracer, *, smoke: bool = False):
        self.seed, self.smoke, self.tracer = seed, smoke, tracer
        self.steady = config.STEADY_QUERIES[self.name]
        self.stream: Optional[streams.Stream] = None
        self.ref: Optional[streams.Reference] = None
        self.matrix = None
        self._stack = contextlib.ExitStack()
        self.phases: Dict[str, list] = {}

    def setup(self) -> None:
        from repro.distributed import spawn_local_agents

        self.stream = streams.generate("trickle", self.seed, smoke=self.smoke)
        self.ref = streams.reference(self.stream)
        self.probes = streams.probe_windows(self.stream)
        addresses, _procs = self._stack.enter_context(spawn_local_agents(config.SHARDS))
        self.matrix = make_sharded(use_processes=True, transport="socket", nodes=addresses)
        self._stack.callback(self.matrix.close)

    def warmup(self) -> bool:
        from repro import analytics

        for r, c, v in self.stream.batches:
            self.matrix.update(r, c, v)
        self.matrix.finalize()
        analytics.degree_summary(self.matrix)
        return streams.coo_matches(self.ref, *self.matrix.materialize().extract_tuples())

    def repeat(self, traced: bool) -> Repeat:
        from repro import analytics

        matrix = self.matrix
        matrix.clear()
        ops = Ops()
        queries, done, pressure = [], 0, 0.0
        before = alloc_counters()
        self.tracer.enabled = traced
        start = time.perf_counter()
        for _replay in range(config.SOCKET_REPLAYS):
            for i, (r, c, v) in enumerate(self.stream.batches, 1):
                dt, _ = ops.timed(matrix.update, r, c, v)
                if dt is not None:
                    done += r.size
                if traced and i % config.PRESSURE_EVERY == 0:
                    pressure = max(pressure, matrix.ingest_pressure())
        dt, _ = ops.timed(matrix.finalize)
        wall = time.perf_counter() - start
        if dt is None:
            done = 0
        run = collect_stages(self.tracer, self.phases, "run") if traced else {}
        allocs = alloc_delta(before)

        with self.tracer.span("distributed.stats_gather"):
            dt, summary = ops.timed(analytics.degree_summary, matrix)
        first = None if dt is None else dt * 1e3
        for _ in range(self.steady):
            dt, _ = ops.timed(analytics.degree_summary, matrix)
            if dt is not None:
                queries.append(dt)
        correct = ops.check(
            summary is not None
            and streams.summary_matches(self.ref, summary, replays=config.SOCKET_REPLAYS)
        )

        layer = self._layer(run, allocs, pressure, done / wall) if traced else {}

        acks = []
        for r, c, v in self.probes:
            ops.timed(matrix.update, r, c, v)
            dt, _ = ops.timed(matrix.finalize)
            if dt is not None:
                acks.append(dt)
        return Repeat(
            wall, done, ms(acks), ms(queries), first, ops.attempted, ops.failed, correct, layer, run
        )

    def _layer(self, run, allocs, pressure, updates_per_s) -> Dict[str, float]:
        post = collect_stages(self.tracer, self.phases, "post")
        self.tracer.enabled = False
        layer = span_metrics(merged(run, post))
        layer.update(allocs)
        layer["distributed.send_s"] = layer["distributed.update_s"] - layer["distributed.route_s"]
        layer["distributed.ingest_pressure_max"] = pressure
        layer.update(report_metrics(self.matrix.reports(), updates_per_s))
        return layer

    def close(self) -> None:
        self._stack.close()
