"""D4M associative arrays over the hypersparse GraphBLAS substrate.

This subpackage provides the Dynamic Distributed Dimensional Data Model (D4M)
associative-array abstraction used by the paper's prior-work baselines: sparse
arrays indexed by sorted string keys, supporting addition (union of keys),
subscripting by key/range/prefix, transpose and row/column sums.
"""

from .assocarray import Assoc
from .string_table import StringTable

__all__ = ["Assoc", "StringTable"]
