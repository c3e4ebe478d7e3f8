"""Figure 2 assembly: combine measured rates, the cluster model, and published curves.

This module produces the rate-versus-servers table that reproduces Figure 2:

* the *Hierarchical GraphBLAS* series comes from a locally measured
  per-instance rate extrapolated by :class:`~repro.distributed.supercloud.SuperCloudModel`;
* the *Hierarchical D4M* series is extrapolated the same way from the measured
  hierarchical-D4M per-instance rate (and cross-checked against the published
  1.9e9 figure);
* the database systems (Accumulo, SciDB, CrateDB, Oracle TPC-C) are carried as
  published reference curves because they cannot be run offline.

The output is a list of plain dict rows, so the CLI, the example and the
tests all read the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..baselines.published import PublishedSeries, published_series
from .supercloud import ClusterConfig, ScalingPoint, SuperCloudModel

__all__ = ["Figure2Row", "build_figure2_table", "format_table", "DEFAULT_SERVER_COUNTS"]

#: Server counts reported for Figure 2 (log-spaced from 1 to the paper's 1,100).
DEFAULT_SERVER_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1100)


@dataclass(frozen=True)
class Figure2Row:
    """One (system, servers) point of the Figure 2 table.

    Attributes
    ----------
    system:
        System label (matches the figure's legend).
    servers:
        Number of server nodes.
    updates_per_second:
        Aggregate sustained update rate at that scale.
    source:
        ``"measured+model"`` for series extrapolated from local measurements,
        ``"published"`` for literature reference curves.
    """

    system: str
    servers: int
    updates_per_second: float
    source: str

    def as_dict(self) -> dict:
        return {
            "system": self.system,
            "servers": self.servers,
            "updates_per_second": self.updates_per_second,
            "source": self.source,
        }


def build_figure2_table(
    measured_rates: Dict[str, float],
    *,
    server_counts: Sequence[int] = DEFAULT_SERVER_COUNTS,
    config: Optional[ClusterConfig] = None,
    include_published: bool = True,
) -> List[Figure2Row]:
    """Build the Figure 2 table.

    Parameters
    ----------
    measured_rates:
        Mapping from system label to locally measured *per-instance* updates
        per second (e.g. ``{"Hierarchical GraphBLAS": 1.4e6,
        "Hierarchical D4M": 9e4}``).  Each is extrapolated across servers by
        the SuperCloud model.
    server_counts:
        The x-axis of the figure.
    config:
        Cluster configuration (defaults to the paper's 28 processes/node).
    include_published:
        Also emit the published reference curves.
    """
    model = SuperCloudModel(config)
    rows: List[Figure2Row] = []
    for system, per_instance in measured_rates.items():
        for point in model.scaling_series(per_instance, server_counts):
            rows.append(
                Figure2Row(
                    system=system,
                    servers=point.nodes,
                    updates_per_second=point.aggregate_rate,
                    source="measured+model",
                )
            )
    if include_published:
        for series in published_series().values():
            for n in server_counts:
                max_published = max(series.servers)
                if n > max_published and series.name not in (
                    "Hierarchical GraphBLAS (paper)",
                    "Hierarchical D4M",
                ):
                    # Database systems were never demonstrated beyond their
                    # published scale; do not extrapolate them past it.
                    continue
                rows.append(
                    Figure2Row(
                        system=series.name,
                        servers=int(n),
                        updates_per_second=series.rate_at(int(n)),
                        source="published",
                    )
                )
    return rows


def format_table(rows: Sequence[Figure2Row]) -> str:
    """Render Figure 2 rows as an aligned text table (one line per point)."""
    header = f"{'system':<36} {'servers':>8} {'updates/s':>16} {'source':>16}"
    lines = [header, "-" * len(header)]
    for row in sorted(rows, key=lambda r: (r.system, r.servers)):
        lines.append(
            f"{row.system:<36} {row.servers:>8d} {row.updates_per_second:>16.3e} {row.source:>16}"
        )
    return "\n".join(lines)
