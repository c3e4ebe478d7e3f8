"""Local parallel ingest engine.

The paper's scaling experiment launches many independent processes, each
streaming its own power-law graph into its own hierarchical hypersparse
matrix.  This module reproduces that structure on one machine, running on top
of the persistent :class:`~repro.distributed.pool.ShardWorkerPool` — the
self-generated workload of the paper is dispatched to the long-lived workers
as one stream source among several (externally fed streams go through
:class:`~repro.distributed.sharded.ShardedHierarchicalMatrix` on the same
pool).  Every worker owns a private :class:`~repro.core.HierarchicalMatrix`,
streams its shard of the workload, and reports its measured update rate; the
engine sums per-worker rates exactly the way the paper sums per-process rates
across the SuperCloud.  The same worker function doubles as the per-instance
rate measurement that :class:`~repro.distributed.supercloud.SuperCloudModel`
extrapolates from.

Measurement fidelity (fixed in PR 2): a worker streams *exactly*
``total_updates`` elements — the remainder batch is no longer silently
dropped (and small requests no longer round up to a full batch) — and the
deferred layer-1 flush is forced inside the timed section, so
``updates_per_second`` pays for the pending-tuple sort/merge the stream
deferred instead of hiding it in the untimed ``materialize``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core import HierarchicalMatrix
from .pool import ShardWorkerPool, WorkerReport, stream_powerlaw

__all__ = [
    "WorkerReport",
    "ParallelIngestResult",
    "ingest_worker",
    "ParallelIngestEngine",
]


@dataclass
class ParallelIngestResult:
    """Aggregate of all worker reports.

    Attributes
    ----------
    workers:
        Per-worker reports.
    total_updates:
        Sum of updates across workers.
    wall_seconds:
        Wall-clock time of the whole parallel phase (includes process startup).
    aggregate_rate_sum:
        Sum of per-worker rates — the quantity the paper aggregates across the
        SuperCloud (independent instances, independent clocks).
    aggregate_rate_wall:
        ``total_updates / wall_seconds`` — the stricter single-clock rate.
    """

    workers: List[WorkerReport]
    total_updates: int
    wall_seconds: float
    aggregate_rate_sum: float
    aggregate_rate_wall: float

    @property
    def nworkers(self) -> int:
        """Number of workers that ran."""
        return len(self.workers)

    @property
    def mean_worker_rate(self) -> float:
        """Mean per-worker updates/second."""
        if not self.workers:
            return 0.0
        return float(np.mean([w.updates_per_second for w in self.workers]))


def ingest_worker(
    worker_id: int,
    total_updates: int,
    batch_size: int,
    cuts: Sequence[int],
    *,
    nnodes: int = 2 ** 32,
    alpha: float = 1.3,
    distinct_nodes: int = 2 ** 22,
    seed: Optional[int] = None,
) -> WorkerReport:
    """Run one complete per-process ingest (the unit of the paper's experiment).

    Generates exactly ``total_updates`` power-law edges in ``batch_size``
    batches (the last batch partial when needed) and streams them into a
    private hierarchical hypersparse matrix, timing the update path plus the
    forced final flush of deferred pending tuples; generation time is
    excluded, as in the paper where data already resides in memory arrays
    before the timed insert loop.
    """
    matrix = HierarchicalMatrix(nnodes, nnodes, "fp64", cuts=list(cuts))
    done, elapsed = stream_powerlaw(
        matrix,
        worker_id,
        total_updates,
        batch_size,
        nnodes=nnodes,
        alpha=alpha,
        distinct_nodes=distinct_nodes,
        seed=seed,
    )
    rate = done / elapsed if elapsed > 0 else 0.0
    stats = matrix.stats
    return WorkerReport(
        worker_id=worker_id,
        total_updates=done,
        elapsed_seconds=elapsed,
        updates_per_second=rate,
        final_nvals=matrix.materialize().nvals,
        cascades=list(stats.cascades) if stats is not None else [],
    )


class ParallelIngestEngine:
    """Runs many self-generating ingest workers and aggregates their rates.

    Workers are the persistent pool's long-lived shard workers executing the
    ``selfgen`` command, so the measured configuration matches the serving
    path (same worker loop, same wire) rather than a one-shot ``pool.map``.

    Parameters
    ----------
    nworkers:
        Number of worker processes (default: the machine's CPU count).
    cuts:
        Hierarchical cut configuration for every worker.
    use_processes:
        When False the workers run sequentially in-process (useful on
        single-core machines and in unit tests where fork overhead dominates);
        the aggregation logic is identical.

    Examples
    --------
    >>> engine = ParallelIngestEngine(nworkers=2, cuts=[1000, 10000], use_processes=False)
    >>> result = engine.run(updates_per_worker=20000, batch_size=1000)
    >>> result.total_updates
    40000
    """

    def __init__(
        self,
        nworkers: Optional[int] = None,
        *,
        cuts: Sequence[int] = (2 ** 17, 2 ** 20, 2 ** 23),
        use_processes: bool = True,
    ):
        self.nworkers = int(nworkers) if nworkers is not None else (os.cpu_count() or 1)
        if self.nworkers < 1:
            raise ValueError("nworkers must be >= 1")
        self.cuts = list(cuts)
        self.use_processes = use_processes

    def run(
        self,
        updates_per_worker: int = 1_000_000,
        batch_size: int = 100_000,
        **worker_kwargs,
    ) -> ParallelIngestResult:
        """Run the parallel ingest and aggregate worker reports."""
        nnodes = int(worker_kwargs.get("nnodes", 2 ** 32))
        spec = {
            "total_updates": int(updates_per_worker),
            "batch_size": int(batch_size),
            **worker_kwargs,
        }
        matrix_kwargs = {
            "nrows": nnodes,
            "ncols": nnodes,
            "dtype": "fp64",
            "cuts": self.cuts,
        }
        wall_start = time.perf_counter()
        with ShardWorkerPool(
            self.nworkers,
            matrix_kwargs=matrix_kwargs,
            use_processes=self.use_processes and self.nworkers > 1,
        ) as pool:
            reports = pool.request_all("selfgen", spec)
        wall = time.perf_counter() - wall_start
        total = sum(r.total_updates for r in reports)
        rate_sum = sum(r.updates_per_second for r in reports)
        rate_wall = total / wall if wall > 0 else 0.0
        return ParallelIngestResult(
            workers=list(reports),
            total_updates=total,
            wall_seconds=wall,
            aggregate_rate_sum=rate_sum,
            aggregate_rate_wall=rate_wall,
        )

    def measure_single_instance_rate(
        self, updates: int = 1_000_000, batch_size: int = 100_000, **worker_kwargs
    ) -> float:
        """Measure the per-instance rate the SuperCloud model extrapolates from."""
        report = ingest_worker(0, int(updates), int(batch_size), self.cuts, **worker_kwargs)
        return report.updates_per_second
