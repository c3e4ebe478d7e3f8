"""Instrumentation for hierarchical hypersparse matrices.

The paper's central claim is that the hierarchy "dramatically reduces the
number of updates to slow memory".  :class:`UpdateStats` records exactly the
quantities needed to verify that claim: how many raw element updates arrived,
how many element-writes each layer absorbed, and how many cascades each layer
triggered.  ``slow_memory_writes`` (writes into the unbounded last layer) and
``fast_memory_fraction`` read the claim straight off those counts.

The counters are always on and hold no clock: ingest rates are timed outside
the matrix, by :class:`~repro.workloads.IngestSession` in process and by each
shard worker's ``finalize``/``report`` behind a wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["UpdateStats"]


@dataclass
class UpdateStats:
    """Counters accumulated by a :class:`~repro.core.hierarchical.HierarchicalMatrix`.

    Attributes
    ----------
    nlevels:
        Number of layers being tracked.
    total_updates:
        Total number of element updates submitted by the application.
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
    """

    nlevels: int
    total_updates: int = 0
    update_calls: int = 0
    element_writes: List[int] = field(default_factory=list)
    cascades: List[int] = field(default_factory=list)
    max_layer_nvals: List[int] = field(default_factory=list)

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

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (the form a checkpoint stores)."""
        return {
            "nlevels": self.nlevels,
            "total_updates": self.total_updates,
            "update_calls": self.update_calls,
            "element_writes": list(self.element_writes),
            "cascades": list(self.cascades),
            "max_layer_nvals": list(self.max_layer_nvals),
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

