"""D4M associative-array ingest baselines (flat and hierarchical).

Figure 2 of the paper compares hierarchical GraphBLAS against the prior D4M
results: "Hierarchical D4M" (Kepner et al. 2019, 1.9 billion updates/s) and
"Accumulo D4M" / "SciDB D4M" (D4M bound to external databases).  These classes
provide the in-memory D4M ingest paths with the same ``update`` protocol as the
GraphBLAS ingestors, so the relative cost of string-keyed associative arrays
versus integer-indexed hypersparse matrices is measured like-for-like.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core import HierarchicalAssoc
from ..core.policy import CutPolicy
from ..d4m import Assoc

__all__ = ["FlatD4MIngestor", "HierarchicalD4MIngestor"]


def _keys_from_ints(values: np.ndarray) -> list:
    """Render integer coordinates as zero-padded strings (D4M sorts keys lexically)."""
    return [f"{int(v):020d}" for v in np.asarray(values).ravel()]


class FlatD4MIngestor:
    """Adds every batch directly into one growing associative array."""

    def __init__(self) -> None:
        self._assoc = Assoc.empty()
        self._total_updates = 0

    @property
    def assoc(self) -> Assoc:
        """The accumulated associative array."""
        return self._assoc

    @property
    def total_updates(self) -> int:
        """Raw element updates submitted so far."""
        return self._total_updates

    def update(self, rows, cols, values=1) -> "FlatD4MIngestor":
        """Convert the batch to string keys and add it into the accumulated Assoc."""
        row_keys = _keys_from_ints(rows)
        col_keys = _keys_from_ints(cols)
        if np.isscalar(values):
            vals = np.full(len(row_keys), values, dtype=np.float64)
        else:
            vals = np.asarray(values, dtype=np.float64)
        batch = Assoc(row_keys, col_keys, vals)
        self._assoc = self._assoc + batch if self._assoc.nnz else batch
        self._total_updates += len(row_keys)
        return self

    def materialize(self) -> Assoc:
        """Return the accumulated associative array."""
        return self._assoc

    def clear(self) -> "FlatD4MIngestor":
        """Drop all accumulated state."""
        self._assoc = Assoc.empty()
        self._total_updates = 0
        return self


class HierarchicalD4MIngestor:
    """The paper's closest prior system: hierarchical D4M associative arrays.

    Parameters
    ----------
    cuts / policy:
        Cut configuration forwarded to :class:`~repro.core.HierarchicalAssoc`.
    """

    def __init__(self, *, cuts: Optional[Sequence[int]] = None, policy: Optional[CutPolicy] = None):
        kwargs = {}
        if cuts is not None:
            kwargs["cuts"] = cuts
        if policy is not None:
            kwargs["policy"] = policy
        self._hier = HierarchicalAssoc(**kwargs)

    @property
    def hierarchy(self) -> HierarchicalAssoc:
        """The underlying hierarchical associative array."""
        return self._hier

    @property
    def stats(self):
        """Update statistics of the hierarchy."""
        return self._hier.stats

    @property
    def total_updates(self) -> int:
        """Raw element updates submitted so far."""
        return self._hier.stats.total_updates

    def update(self, rows, cols, values=1) -> "HierarchicalD4MIngestor":
        """Convert the batch to string keys and push it through the cascade."""
        row_keys = _keys_from_ints(rows)
        col_keys = _keys_from_ints(cols)
        if np.isscalar(values):
            vals = np.full(len(row_keys), values, dtype=np.float64)
        else:
            vals = np.asarray(values, dtype=np.float64)
        self._hier.update(row_keys, col_keys, vals)
        return self

    def materialize(self) -> Assoc:
        """Materialise the logical associative array."""
        return self._hier.materialize()

    def clear(self) -> "HierarchicalD4MIngestor":
        """Drop all accumulated state."""
        self._hier.clear()
        return self
