"""Windowed streaming analytics over hierarchical hypersparse matrices.

The paper notes that "in a real analysis application, each process would also
compute various network statistics on each of the streams as they are
updated".  :class:`WindowedAnalyzer` is that loop: it ingests packet windows
into a hierarchical traffic matrix and, every ``analysis_interval`` windows,
records the summary statistics / supernode reports that a monitoring pipeline
would export.  The reports are served by the hierarchy's incremental
reduction tracker, so an analysis neither materialises the matrix nor forces
layer 1's deferred flush: queries coexist with streaming at full ingest
speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core import HierarchicalMatrix
from ..workloads.traffic import PacketBatch
from .degree import degree_summary
from .supernodes import supernode_report

__all__ = ["WindowSnapshot", "WindowedAnalyzer"]


@dataclass(frozen=True)
class WindowSnapshot:
    """Statistics exported after one analysis interval.

    Attributes
    ----------
    window:
        Index of the last ingested window.
    packets_ingested:
        Total packets ingested so far.
    summary:
        Output of :func:`~repro.analytics.degree.degree_summary`.
    supernodes:
        Output of :func:`~repro.analytics.supernodes.supernode_report`.
    """

    window: int
    packets_ingested: int
    summary: dict
    supernodes: dict


class WindowedAnalyzer:
    """Ingest packet windows and periodically export traffic statistics.

    Parameters
    ----------
    cuts:
        Hierarchical cut configuration of the traffic matrix.
    analysis_interval:
        Analyse after every this many windows.
    top_k:
        Number of supernodes reported per snapshot.
    """

    def __init__(
        self,
        *,
        cuts: Optional[Sequence[int]] = None,
        analysis_interval: int = 10,
        top_k: int = 5,
        nrows: int = 2 ** 32,
        ncols: int = 2 ** 32,
    ):
        kwargs = {"cuts": list(cuts)} if cuts is not None else {}
        self._matrix = HierarchicalMatrix(nrows, ncols, "fp64", **kwargs)
        self.analysis_interval = int(analysis_interval)
        self.top_k = int(top_k)
        self._snapshots: List[WindowSnapshot] = []

    @property
    def matrix(self) -> HierarchicalMatrix:
        """The hierarchical traffic matrix being maintained."""
        return self._matrix

    @property
    def snapshots(self) -> List[WindowSnapshot]:
        """Snapshots exported so far."""
        return list(self._snapshots)

    @property
    def packets_ingested(self) -> int:
        """Total packets ingested."""
        return self._matrix.stats.total_updates

    def ingest(self, batch: PacketBatch) -> Optional[WindowSnapshot]:
        """Ingest one packet window; returns a snapshot when an analysis interval completes."""
        self._matrix.update(batch.sources, batch.destinations, 1.0)
        if self._matrix.stats.update_calls % self.analysis_interval == 0:
            return self.analyze()
        return None

    def analyze(self) -> WindowSnapshot:
        """Export a snapshot now.

        Served by the tracker when it supports fan queries (layer 1's pending
        window stays pending); otherwise one materialised matrix serves both
        reports.
        """
        H = self._matrix
        source = H if H.incremental.fan_supported else H.materialize()
        snapshot = WindowSnapshot(
            window=H.stats.update_calls - 1,
            packets_ingested=self.packets_ingested,
            summary=degree_summary(source),
            supernodes=supernode_report(source, self.top_k),
        )
        self._snapshots.append(snapshot)
        return snapshot
