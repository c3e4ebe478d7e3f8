"""Hierarchical hypersparse matrices — the paper's primary contribution.

:class:`HierarchicalMatrix` implements the N-level cascade of GraphBLAS
hypersparse matrices described in the paper; :class:`HierarchicalAssoc` applies
the same cascade to D4M associative arrays (the closest prior system and the
main Figure 2 baseline); cut policies and update statistics make the
"easily tunable parameters" and "reduced memory pressure" claims measurable.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .hier_assoc import HierarchicalAssoc
from .hierarchical import HierarchicalMatrix
from .policy import CutPolicy, FixedCuts, GeometricCuts, default_policy
from .reductions import IncrementalReductions, KeySetCascade
from .stats import UpdateStats

__all__ = [
    "HierarchicalMatrix",
    "HierarchicalAssoc",
    "IncrementalReductions",
    "KeySetCascade",
    "save_checkpoint",
    "load_checkpoint",
    "CutPolicy",
    "FixedCuts",
    "GeometricCuts",
    "default_policy",
    "UpdateStats",
]
