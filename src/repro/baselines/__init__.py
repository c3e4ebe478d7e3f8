"""Baseline ingest systems used in the Figure 2 comparison.

* :class:`FlatGraphBLASIngestor` — a single hypersparse matrix, no hierarchy;
* :class:`FlatD4MIngestor` / :class:`HierarchicalD4MIngestor` — D4M
  associative-array ingest, flat and hierarchical (the paper's prior work);
* :mod:`~repro.baselines.published` — the published rate curves from the
  systems we cannot run offline (Accumulo, SciDB, CrateDB, Oracle TPC-C).
"""

from .d4m_baselines import FlatD4MIngestor, HierarchicalD4MIngestor
from .flat_graphblas import FlatGraphBLASIngestor
from .published import (
    PAPER_HEADLINE_RATE,
    PAPER_HEADLINE_SERVERS,
    PublishedSeries,
    figure2_reference_rows,
    published_series,
)

__all__ = [
    "FlatGraphBLASIngestor",
    "FlatD4MIngestor",
    "HierarchicalD4MIngestor",
    "PublishedSeries",
    "published_series",
    "figure2_reference_rows",
    "PAPER_HEADLINE_RATE",
    "PAPER_HEADLINE_SERVERS",
]
