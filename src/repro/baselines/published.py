"""Published ingest-rate reference series for the Figure 2 comparison.

Figure 2 of the paper plots the hierarchical GraphBLAS update rate against
*previously published* results: Hierarchical D4M [19]/[24], Accumulo D4M [25],
SciDB D4M [26], Accumulo [27], the Oracle TPC-C benchmark, and CrateDB [28].
Those systems ran on clusters we cannot reproduce offline, so — per the
substitution policy in DESIGN.md — this module carries the published numbers
themselves (digitised from the figure and the cited papers, to the precision
the log-log plot supports) as reference series.
:func:`~repro.distributed.aggregate.build_figure2_table` emits them alongside
the rates measured for our own implementations, so the table ``repro-fig2``
prints has the same rows as the paper's figure.

All rates are in updates (inserts) per second; server counts are the x-axis of
Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

__all__ = ["PublishedSeries", "published_series", "PAPER_HEADLINE_RATE", "PAPER_HEADLINE_SERVERS"]

#: The abstract's headline aggregate rate (updates per second).
PAPER_HEADLINE_RATE = 75_000_000_000
#: Number of server nodes at which the headline rate was achieved.
PAPER_HEADLINE_SERVERS = 1100
#: Number of hierarchical hypersparse matrix instances at the headline point.
PAPER_HEADLINE_INSTANCES = 31_000
#: Single-instance rate quoted in the abstract ("over 1,000,000 updates per second").
PAPER_SINGLE_INSTANCE_RATE = 1_000_000


@dataclass(frozen=True)
class PublishedSeries:
    """One published rate-vs-servers curve.

    Attributes
    ----------
    name:
        System label as it appears in Figure 2.
    servers:
        Number of server nodes for each published point.
    rates:
        Updates per second at each point.
    citation:
        Reference in the paper's bibliography.
    measured_here:
        False for literature numbers; True for series our benchmarks produce.
    """

    name: str
    servers: Tuple[int, ...]
    rates: Tuple[float, ...]
    citation: str
    measured_here: bool = False

    def rate_at(self, nservers: int) -> float:
        """Log-log interpolated/extrapolated rate at ``nservers``."""
        s = np.asarray(self.servers, dtype=np.float64)
        r = np.asarray(self.rates, dtype=np.float64)
        if s.size == 1:
            # Assume linear weak scaling from the single published point.
            return float(r[0] * nservers / s[0])
        logs = np.log10(s)
        logr = np.log10(r)
        slope = np.polyfit(logs, logr, 1)
        return float(10 ** np.polyval(slope, np.log10(nservers)))

    @property
    def peak_rate(self) -> float:
        """Largest published rate in the series."""
        return float(max(self.rates))


_SERIES: Dict[str, PublishedSeries] = {
    "hierarchical_graphblas_paper": PublishedSeries(
        name="Hierarchical GraphBLAS (paper)",
        servers=(1, 8, 64, 256, 1100),
        rates=(7.0e7, 5.5e8, 4.4e9, 1.8e10, 7.5e10),
        citation="this paper (Kepner et al. 2020), Fig. 2",
    ),
    "hierarchical_d4m": PublishedSeries(
        name="Hierarchical D4M",
        servers=(1, 8, 64, 256, 1100),
        rates=(2.0e6, 1.5e7, 1.2e8, 4.6e8, 1.9e9),
        citation="[24] Kepner et al., HPEC 2019 (1.9 billion updates/s)",
    ),
    "accumulo_d4m": PublishedSeries(
        name="Accumulo D4M",
        servers=(1, 8, 64, 216),
        rates=(6.0e5, 4.0e6, 3.0e7, 1.0e8),
        citation="[25] Kepner et al., HPEC 2014 (100,000,000 inserts/s)",
    ),
    "scidb_d4m": PublishedSeries(
        name="SciDB D4M",
        servers=(1, 4, 16),
        rates=(2.0e5, 6.0e5, 1.5e6),
        citation="[26] Samsi et al., HPEC 2016",
    ),
    "accumulo": PublishedSeries(
        name="Accumulo",
        servers=(1, 8, 100),
        rates=(1.0e5, 8.0e5, 1.0e7),
        citation="[27] Sen et al., IEEE BigData 2013",
    ),
    "oracle_tpcc": PublishedSeries(
        name="Oracle (TPC-C)",
        servers=(1, 8, 30),
        rates=(5.0e4, 2.5e5, 5.0e5),
        citation="Oracle TPC-C benchmark results (as plotted in Fig. 2)",
    ),
    "cratedb": PublishedSeries(
        name="CrateDB",
        servers=(1, 8, 32),
        rates=(8.0e4, 6.0e5, 3.8e6),
        citation="[28] CrateDB big-cluster ingest blog, 2016",
    ),
}


def published_series() -> Dict[str, PublishedSeries]:
    """All Figure 2 reference series, keyed by a short identifier."""
    return dict(_SERIES)

