"""Instrumentation for hierarchical hypersparse matrices.

The paper's central claim is that the hierarchy "dramatically reduces the
number of updates to slow memory".  :class:`UpdateStats` records exactly the
quantities needed to verify that claim: how many raw element updates arrived,
how many element-writes each layer absorbed, and how many cascades each layer
triggered.  ``slow_memory_writes`` (writes into the unbounded last layer) and
``fast_memory_fraction`` read the claim straight off those counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["UpdateStats", "Timer"]


@dataclass
class UpdateStats:
    """Counters accumulated by a :class:`~repro.core.hierarchical.HierarchicalMatrix`.

    Attributes
    ----------
    nlevels:
        Number of layers being tracked.
    total_updates:
        Total number of element updates submitted by the application
        (the denominator of the updates-per-second metric).
    update_calls:
        Number of ``update`` batch calls.
    element_writes:
        Per-layer count of elements written *into* that layer, including
        cascade traffic.  ``element_writes[0]`` counts the raw stream;
        ``element_writes[i]`` for ``i > 0`` counts cascade merges.
    cascades:
        Per-layer count of cascade events (layer ``i`` overflowed into ``i+1``).
    max_layer_nvals:
        Largest number of stored entries ever observed per layer.
    elapsed_seconds:
        Wall-clock time spent inside ``update`` (including cascades).
    """

    nlevels: int
    total_updates: int = 0
    update_calls: int = 0
    element_writes: List[int] = field(default_factory=list)
    cascades: List[int] = field(default_factory=list)
    max_layer_nvals: List[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.element_writes:
            self.element_writes = [0] * self.nlevels
        if not self.cascades:
            self.cascades = [0] * self.nlevels
        if not self.max_layer_nvals:
            self.max_layer_nvals = [0] * self.nlevels

    # ------------------------------------------------------------------ #

    def record_update(self, nelements: int) -> None:
        """Record a batch of ``nelements`` raw updates arriving at layer 1."""
        self.total_updates += int(nelements)
        self.update_calls += 1
        self.element_writes[0] += int(nelements)

    def record_cascade(self, from_level: int, nelements: int) -> None:
        """Record layer ``from_level`` (0-based) spilling ``nelements`` into the next layer."""
        self.cascades[from_level] += 1
        if from_level + 1 < self.nlevels:
            self.element_writes[from_level + 1] += int(nelements)

    def record_layer_size(self, level: int, nvals: int) -> None:
        """Track the high-water mark of stored entries at ``level``."""
        if nvals > self.max_layer_nvals[level]:
            self.max_layer_nvals[level] = int(nvals)

    # ------------------------------------------------------------------ #

    @property
    def updates_per_second(self) -> float:
        """Measured streaming update rate (0.0 when no time has elapsed)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_updates / self.elapsed_seconds

    @property
    def slow_memory_writes(self) -> int:
        """Element writes that reached the last (slow-memory) layer."""
        return int(self.element_writes[-1]) if self.element_writes else 0

    @property
    def fast_memory_fraction(self) -> float:
        """Fraction of all element writes absorbed by layers other than the last."""
        total = sum(self.element_writes)
        if total == 0:
            return 1.0
        return 1.0 - self.element_writes[-1] / total

    def merge(self, other: "UpdateStats") -> "UpdateStats":
        """Combine counters from another instance (e.g. another process)."""
        if other.nlevels != self.nlevels:
            raise ValueError(
                f"cannot merge stats with different level counts "
                f"({self.nlevels} vs {other.nlevels})"
            )
        out = UpdateStats(self.nlevels)
        out.total_updates = self.total_updates + other.total_updates
        out.update_calls = self.update_calls + other.update_calls
        out.element_writes = [a + b for a, b in zip(self.element_writes, other.element_writes)]
        out.cascades = [a + b for a, b in zip(self.cascades, other.cascades)]
        out.max_layer_nvals = [
            max(a, b) for a, b in zip(self.max_layer_nvals, other.max_layer_nvals)
        ]
        out.elapsed_seconds = max(self.elapsed_seconds, other.elapsed_seconds)
        return out

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (used by the CLI and the benchmark reports)."""
        return {
            "nlevels": self.nlevels,
            "total_updates": self.total_updates,
            "update_calls": self.update_calls,
            "element_writes": list(self.element_writes),
            "cascades": list(self.cascades),
            "max_layer_nvals": list(self.max_layer_nvals),
            "elapsed_seconds": self.elapsed_seconds,
            "updates_per_second": self.updates_per_second,
            "slow_memory_writes": self.slow_memory_writes,
            "fast_memory_fraction": self.fast_memory_fraction,
        }

    def reset(self) -> None:
        """Zero every counter."""
        self.total_updates = 0
        self.update_calls = 0
        self.element_writes = [0] * self.nlevels
        self.cascades = [0] * self.nlevels
        self.max_layer_nvals = [0] * self.nlevels
        self.elapsed_seconds = 0.0


class Timer:
    """Tiny context manager accumulating wall-clock time into an UpdateStats."""

    def __init__(self, stats: UpdateStats):
        self._stats = stats
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._stats.elapsed_seconds += time.perf_counter() - self._start
