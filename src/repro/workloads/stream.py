"""Streaming utilities: batching and the in-process ingest stopwatch.

:class:`IngestSession` measures "updates per second" the way the paper does:
total element updates divided by the wall-clock time spent ingesting them,
for any object exposing an ``update(rows, cols, values)`` method
(hierarchical matrices, flat matrices, D4M baselines).  It is the library's
one in-process ingest stopwatch; a shard worker times the same span from
``ingest`` through ``finalize``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Protocol, Tuple

import numpy as np

__all__ = [
    "batched",
    "interleave",
    "normalize_batch",
    "IngestResult",
    "IngestSession",
    "Ingestor",
]


class Ingestor(Protocol):
    """Anything that can absorb a batch of coordinate updates."""

    def update(self, rows, cols, values=1) -> object:  # pragma: no cover - protocol
        ...


def batched(
    rows: np.ndarray,
    cols: np.ndarray,
    values: Optional[np.ndarray] = None,
    *,
    batch_size: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Split coordinate arrays into contiguous batches of ``batch_size``.

    The last batch may be smaller.  Views (not copies) are yielded.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    n = rows.size
    if values is None:
        values = np.ones(n, dtype=np.float64)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        yield rows[start:stop], cols[start:stop], values[start:stop]


def interleave(*streams: Iterable, seed: Optional[int] = None) -> Iterator:
    """Merge several batch streams into one, round-robin or randomized.

    Models many independent clients feeding one ingest point (the gateway's
    workload shape): without ``seed`` the streams are drained round-robin;
    with it, each batch comes from a uniformly random still-live stream.
    Exhausted streams drop out until all are drained.  For an associative,
    commutative accumulator (``plus`` over exactly representable values) the
    ingested result is independent of the interleaving — which is exactly why
    the soak tests can compare any concurrent client schedule against a flat
    reference fed this merged stream.
    """
    iterators: List[Iterator] = [iter(s) for s in streams]
    rng = np.random.default_rng(seed) if seed is not None else None
    while iterators:
        if rng is None:
            for it in list(iterators):
                try:
                    yield next(it)
                except StopIteration:
                    iterators.remove(it)
        else:
            it = iterators[int(rng.integers(len(iterators)))]
            try:
                yield next(it)
            except StopIteration:
                iterators.remove(it)


def normalize_batch(batch) -> Tuple[np.ndarray, np.ndarray, object]:
    """Coerce any supported stream batch to ``(rows, cols, values)``.

    Accepts :class:`~repro.workloads.powerlaw.EdgeBatch` (``rows``/``cols``),
    :class:`~repro.workloads.traffic.PacketBatch` (``sources`` count as rows,
    each packet adds 1), or plain ``(rows, cols[, values])`` tuples — the one
    batch protocol shared by :class:`IngestSession` and the sharded engine.
    """
    if hasattr(batch, "rows"):
        return batch.rows, batch.cols, batch.values
    if hasattr(batch, "sources"):
        return batch.sources, batch.destinations, 1.0
    if len(batch) == 2:
        rows, cols = batch
        return rows, cols, 1.0
    rows, cols, values = batch
    return rows, cols, values


@dataclass
class IngestResult:
    """Outcome of one ingest session.

    Attributes
    ----------
    system:
        Label of the system under test (e.g. ``"hierarchical-graphblas"``).
    total_updates:
        Number of element updates streamed.
    elapsed_seconds:
        Wall-clock time spent inside ``update`` calls plus the final
        ``wait()`` of an ingestor that defers work.
    updates_per_second:
        ``total_updates / elapsed_seconds``.
    batches:
        Number of batches streamed.
    metadata:
        Free-form extra information (cut values, layer sizes, ...).
    """

    system: str
    total_updates: int
    elapsed_seconds: float
    updates_per_second: float
    batches: int
    metadata: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        """Flat dict convenient for tabular reports."""
        row = {
            "system": self.system,
            "total_updates": self.total_updates,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "updates_per_second": round(self.updates_per_second, 1),
            "batches": self.batches,
        }
        row.update({k: v for k, v in self.metadata.items() if np.isscalar(v)})
        return row


class IngestSession:
    """Streams batches into any :class:`Ingestor` and measures the update rate.

    :meth:`run` times every ``update()`` call and, when the ingestor defers
    work (it has a ``wait()`` method, as
    :class:`~repro.core.HierarchicalMatrix` does for layer 1's pending
    window), one final ``wait()``: the rate covers all of the insert work,
    the same span a shard worker times from ``ingest`` through ``finalize``.

    Parameters
    ----------
    ingestor:
        The system under test.
    system:
        Label recorded in the result.

    Examples
    --------
    >>> from repro.core import HierarchicalMatrix
    >>> from repro.workloads import paper_stream
    >>> H = HierarchicalMatrix(cuts=[1000, 100000])
    >>> result = IngestSession(H, "hier").run(paper_stream(scale=0.0001))
    >>> result.total_updates == H.stats.total_updates == 10000
    True
    >>> H.layers[0].has_pending
    False
    """

    def __init__(self, ingestor: Ingestor, system: str = "unnamed"):
        self._ingestor = ingestor
        self._system = system

    @property
    def ingestor(self) -> Ingestor:
        """The wrapped system under test."""
        return self._ingestor

    def run(self, batches: Iterable, *, max_batches: Optional[int] = None) -> IngestResult:
        """Stream an entire workload and time it, final flush included.

        ``batches`` may yield :class:`~repro.workloads.powerlaw.EdgeBatch`,
        :class:`~repro.workloads.traffic.PacketBatch`, or plain
        ``(rows, cols, values)`` tuples.
        """
        update = self._ingestor.update
        count = updates = 0
        seconds = 0.0
        for batch in batches:
            if max_batches is not None and count >= max_batches:
                break
            rows, cols, values = normalize_batch(batch)
            start = time.perf_counter()
            update(rows, cols, values)
            seconds += time.perf_counter() - start
            updates += np.asarray(rows).size
            count += 1
        wait = getattr(self._ingestor, "wait", None)
        if wait is not None:
            start = time.perf_counter()
            wait()
            seconds += time.perf_counter() - start
        metadata = {}
        stats = getattr(self._ingestor, "stats", None)
        if stats is not None:
            metadata = {
                "cascades": list(stats.cascades),
                "fast_memory_fraction": stats.fast_memory_fraction,
                "slow_memory_writes": stats.slow_memory_writes,
            }
        return IngestResult(
            system=self._system,
            total_updates=updates,
            elapsed_seconds=seconds,
            updates_per_second=updates / seconds if seconds > 0 else 0.0,
            batches=count,
            metadata=metadata,
        )
