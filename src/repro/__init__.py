"""repro — hierarchical hypersparse GraphBLAS matrices for streaming network updates.

A from-scratch Python reproduction of Kepner et al., "75,000,000,000 Streaming
Inserts/Second Using Hierarchical Hypersparse GraphBLAS Matrices" (2020):

* :mod:`repro.graphblas` — a hypersparse GraphBLAS substrate (matrices,
  vectors, operators and monoids, the accumulating update) built on NumPy;
* :mod:`repro.core` — the paper's contribution: N-level hierarchical
  hypersparse matrices with tunable cuts, plus hierarchical D4M arrays;
* :mod:`repro.d4m` — D4M associative arrays (the prior-work baseline);
* :mod:`repro.workloads` — power-law edge streams, synthetic IP traffic, and
  the ingest measurement harness;
* :mod:`repro.baselines` — flat GraphBLAS/D4M ingest and the published
  Figure 2 reference curves;
* :mod:`repro.distributed` — the SuperCloud scaling model and the sharded
  hierarchical matrix over a persistent worker pool;
* :mod:`repro.analytics` — supernode, background-model and anomaly analytics.

Quickstart
----------
>>> from repro import HierarchicalMatrix
>>> from repro.workloads import IngestSession, paper_stream
>>> H = HierarchicalMatrix(2**32, 2**32, cuts=[2**17, 2**20, 2**23])
>>> result = IngestSession(H, "hierarchical").run(paper_stream(scale=0.0001))
>>> result.total_updates == H.stats.total_updates == 10_000
True
>>> result.updates_per_second > 0
True
"""

from .core import (
    FixedCuts,
    GeometricCuts,
    HierarchicalAssoc,
    HierarchicalMatrix,
    UpdateStats,
)
from .d4m import Assoc
from .graphblas import Matrix, Vector

__version__ = "1.0.0"

__all__ = [
    "HierarchicalMatrix",
    "HierarchicalAssoc",
    "Matrix",
    "Vector",
    "Assoc",
    "FixedCuts",
    "GeometricCuts",
    "UpdateStats",
    "__version__",
]
