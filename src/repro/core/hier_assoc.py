"""Hierarchical D4M associative arrays.

The paper's closest prior system ("Hierarchical D4M", Reuther et al. 2018 /
Kepner et al. 2019) applies the same N-level cascade to D4M associative arrays:
updates land in a small Assoc, and when its triple count exceeds the cut it is
added into the next, larger Assoc and cleared.  We implement it both as a
baseline for Figure 2 and because the cascade-over-addition pattern is the
common abstraction of the paper series.

The extra cost relative to hierarchical GraphBLAS is the string key-table
union performed on every Assoc addition — exactly the overhead the paper's
integer-indexed hypersparse matrices eliminate.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..d4m import Assoc
from .policy import CutPolicy, FixedCuts, default_policy
from .stats import UpdateStats

__all__ = ["HierarchicalAssoc"]


class HierarchicalAssoc:
    """An N-level cascade of D4M associative arrays.

    Parameters
    ----------
    cuts:
        Explicit cut thresholds; mutually exclusive with ``policy``.
    policy:
        A :class:`~repro.core.policy.CutPolicy` (default: the library default
        geometric policy, same as :class:`HierarchicalMatrix`).
    track_stats:
        Maintain an :class:`UpdateStats` instance.

    Examples
    --------
    >>> H = HierarchicalAssoc(cuts=[2, 8])
    >>> H.update(["a", "b"], ["x", "y"], [1.0, 1.0])
    >>> H.update(["a"], ["x"], [2.0])
    >>> H.materialize()["a", "x"]
    3.0
    """

    def __init__(
        self,
        *,
        cuts: Optional[Sequence[int]] = None,
        policy: Optional[CutPolicy] = None,
        track_stats: bool = True,
    ):
        if cuts is not None and policy is not None:
            raise ValueError("pass either cuts= or policy=, not both")
        if policy is None:
            policy = FixedCuts(cuts) if cuts is not None else default_policy()
        self._cuts: List[int] = list(policy.initial_cuts())
        self._nlevels = len(self._cuts) + 1
        self._layers: List[Assoc] = [Assoc.empty() for _ in range(self._nlevels)]
        self._stats = UpdateStats(self._nlevels) if track_stats else None

    # ------------------------------------------------------------------ #

    @property
    def nlevels(self) -> int:
        """Number of layers."""
        return self._nlevels

    @property
    def cuts(self) -> Tuple[int, ...]:
        """Current cut thresholds."""
        return tuple(self._cuts)

    @property
    def layers(self) -> Tuple[Assoc, ...]:
        """The layer associative arrays (do not mutate directly)."""
        return tuple(self._layers)

    @property
    def layer_nnz(self) -> Tuple[int, ...]:
        """Stored triples per layer."""
        return tuple(layer.nnz for layer in self._layers)

    @property
    def stats(self) -> Optional[UpdateStats]:
        """Update instrumentation, or None when disabled."""
        return self._stats

    # ------------------------------------------------------------------ #

    def update(self, row_keys, col_keys, values=1.0) -> "HierarchicalAssoc":
        """Add a batch of string-keyed triples and cascade as needed."""
        start = time.perf_counter()
        batch = Assoc(row_keys, col_keys, values)
        n = batch.nnz
        self._layers[0] = self._layers[0] + batch if self._layers[0].nnz else batch
        if self._stats is not None:
            self._stats.record_update(n)
            self._stats.record_layer_size(0, self._layers[0].nnz)
        self._cascade()
        if self._stats is not None:
            self._stats.elapsed_seconds += time.perf_counter() - start
        return self

    def update_assoc(self, batch: Assoc) -> "HierarchicalAssoc":
        """Add an already-built associative array into the hierarchy."""
        start = time.perf_counter()
        n = batch.nnz
        self._layers[0] = self._layers[0] + batch if self._layers[0].nnz else batch
        if self._stats is not None:
            self._stats.record_update(n)
            self._stats.record_layer_size(0, self._layers[0].nnz)
        self._cascade()
        if self._stats is not None:
            self._stats.elapsed_seconds += time.perf_counter() - start
        return self

    def _cascade(self) -> None:
        for i in range(self._nlevels - 1):
            nnz_i = self._layers[i].nnz
            if self._stats is not None:
                self._stats.record_layer_size(i, nnz_i)
            if nnz_i <= self._cuts[i]:
                break
            if self._layers[i + 1].nnz:
                self._layers[i + 1] = self._layers[i + 1] + self._layers[i]
            else:
                self._layers[i + 1] = self._layers[i]
            self._layers[i] = Assoc.empty()
            if self._stats is not None:
                self._stats.record_cascade(i, nnz_i)
                self._stats.record_layer_size(i + 1, self._layers[i + 1].nnz)

    # ------------------------------------------------------------------ #

    def materialize(self) -> Assoc:
        """Sum all layers into a single associative array."""
        out = Assoc.empty()
        for layer in self._layers:
            if layer.nnz:
                out = out + layer if out.nnz else layer
        return out

    def flush(self) -> Assoc:
        """Collapse every layer into the last one and return it."""
        top = self._layers[-1]
        for i in range(self._nlevels - 1):
            if self._layers[i].nnz:
                top = top + self._layers[i] if top.nnz else self._layers[i]
                if self._stats is not None:
                    self._stats.element_writes[-1] += self._layers[i].nnz
                self._layers[i] = Assoc.empty()
        self._layers[-1] = top
        return top

    def get(self, row_key, col_key, default=None):
        """Read one logical value (summing contributions from every layer)."""
        found = False
        acc = 0.0
        for layer in self._layers:
            v = layer.getval(row_key, col_key)
            if v is not None:
                acc += v
                found = True
        return acc if found else default

    def clear(self) -> "HierarchicalAssoc":
        """Empty every layer."""
        self._layers = [Assoc.empty() for _ in range(self._nlevels)]
        if self._stats is not None:
            self._stats.reset()
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<HierarchicalAssoc levels={self._nlevels}, cuts={self._cuts}, "
            f"layer_nnz={list(self.layer_nnz)}>"
        )
