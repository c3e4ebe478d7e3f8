"""Cut policies for hierarchical hypersparse matrices.

The paper states that "the parameters of hierarchical hypersparse matrices rely
on controlling the number of entries in each level in the hierarchy before an
update is cascaded" and that "the parameters are easily tunable to achieve
optimal performance for a variety of applications".  A :class:`CutPolicy`
encapsulates that tuning: it produces the per-level nonzero thresholds
:math:`c_1 \\le c_2 \\le ... \\le c_{N-1}` (the last layer is unbounded).  The
cuts are fixed when a hierarchy is constructed; tuning means choosing them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence

__all__ = [
    "CutPolicy",
    "FixedCuts",
    "GeometricCuts",
    "default_policy",
]


class CutPolicy(ABC):
    """Produces the per-level cut thresholds."""

    @abstractmethod
    def initial_cuts(self) -> List[int]:
        """The cut values :math:`c_1 ... c_{N-1}` for the non-terminal layers."""

    @property
    def nlevels(self) -> int:
        """Total number of layers (cuts plus the unbounded last layer)."""
        return len(self.initial_cuts()) + 1

    def describe(self) -> str:
        """Short human-readable description of the policy."""
        return f"{type(self).__name__}(cuts={self.initial_cuts()})"


@dataclass(frozen=True)
class FixedCuts(CutPolicy):
    """Explicit, constant cut values.

    Parameters
    ----------
    cuts:
        Strictly positive, non-decreasing thresholds for layers
        :math:`1 ... N-1`.
    """

    cuts: Sequence[int]

    def __post_init__(self) -> None:
        values = [int(c) for c in self.cuts]
        if not values:
            raise ValueError("FixedCuts requires at least one cut value")
        if any(c <= 0 for c in values):
            raise ValueError(f"cut values must be positive, got {values}")
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError(f"cut values must be non-decreasing, got {values}")

    def initial_cuts(self) -> List[int]:
        return [int(c) for c in self.cuts]


@dataclass(frozen=True)
class GeometricCuts(CutPolicy):
    """Cuts growing geometrically: :math:`c_i = c_1 \\cdot r^{i-1}`.

    This is the configuration used throughout the Kepner et al. hierarchical
    papers — each successive layer holds roughly ``ratio`` times more entries,
    matching the capacity ratios of successive levels of the memory hierarchy.

    Parameters
    ----------
    first_cut:
        Threshold of the fastest (smallest) layer.
    ratio:
        Growth factor between successive layers.
    nlevels:
        Total number of layers, including the unbounded last layer.
    """

    first_cut: int = 2 ** 17
    ratio: int = 8
    nlevels_total: int = 4

    def __post_init__(self) -> None:
        if self.first_cut <= 0:
            raise ValueError("first_cut must be positive")
        if self.ratio < 1:
            raise ValueError("ratio must be >= 1")
        if self.nlevels_total < 2:
            raise ValueError("a hierarchy needs at least 2 levels")

    def initial_cuts(self) -> List[int]:
        return [self.first_cut * self.ratio ** i for i in range(self.nlevels_total - 1)]

    @property
    def nlevels(self) -> int:
        return self.nlevels_total


def default_policy() -> GeometricCuts:
    """The library default: 4 layers, first cut 131072, growth ratio 8.

    These values keep the first layer comfortably inside a typical L2/L3 cache
    (a few MiB of coordinate+value storage) while the last layer is unbounded,
    which is the regime the paper benchmarks.
    """
    return GeometricCuts(first_cut=2 ** 17, ratio=8, nlevels_total=4)
