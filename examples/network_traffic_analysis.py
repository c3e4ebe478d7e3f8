#!/usr/bin/env python
"""Network traffic monitoring: the paper's motivating application.

Builds an origin-destination traffic matrix from a synthetic packet stream
(heavy-tailed address popularity, a handful of supernodes, log-normal packet
sizes) using a hierarchical hypersparse matrix, and runs the analyses the
paper's introduction motivates:

* supernode detection (top talkers / top destinations and their traffic share),
* a gravity background model and anomaly scores for unexpected flows,
* per-window summary statistics exported while streaming continues.

Run:  python examples/network_traffic_analysis.py
"""

import numpy as np

from repro.analytics import (
    WindowedAnalyzer,
    degree_summary,
    top_anomalies,
    top_destinations,
    top_sources,
    traffic_share,
)
from repro.workloads import int_to_ipv4, synthetic_packets

PACKETS_PER_WINDOW = 20_000
N_WINDOWS = 10
CUTS = [2_048, 16_384, 131_072]


def main() -> None:
    analyzer = WindowedAnalyzer(cuts=CUTS, analysis_interval=5, top_k=5)

    print(f"streaming {N_WINDOWS} windows x {PACKETS_PER_WINDOW:,} packets ...")
    for batch in synthetic_packets(
        PACKETS_PER_WINDOW, N_WINDOWS, alpha=1.25, supernode_fraction=0.08, seed=42
    ):
        snapshot = analyzer.ingest(batch)
        if snapshot is not None:
            s = snapshot.summary
            print(
                f"  window {snapshot.window:>2}: {s['nnz']:>9,.0f} distinct flows, "
                f"{s['total_traffic']:>10,.0f} packets, "
                f"max out-degree {s['max_out_degree']:,.0f}"
            )

    matrix = analyzer.matrix
    stats = matrix.stats
    print(f"\ningested {stats.total_updates:,} packet observations")
    print(f"fast-memory write share: {stats.fast_memory_fraction:.3f}")

    # ------------------------------------------------------------------ #
    # supernodes
    # ------------------------------------------------------------------ #
    print("\ntop traffic sources (supernodes):")
    for node in top_sources(matrix, 5):
        addr = int_to_ipv4([node.identifier])[0]
        print(f"  {addr:<16} {node.traffic:>10,.0f} packets to {node.fan:>6,} destinations")

    print("top traffic destinations:")
    for node in top_destinations(matrix, 5):
        addr = int_to_ipv4([node.identifier])[0]
        print(f"  {addr:<16} {node.traffic:>10,.0f} packets from {node.fan:>6,} sources")

    src_share, dst_share = traffic_share(matrix, 10)
    print(
        f"top-10 sources carry {100 * src_share:.1f}% of traffic; "
        f"top-10 destinations receive {100 * dst_share:.1f}%"
    )

    # ------------------------------------------------------------------ #
    # background model / anomalies
    # ------------------------------------------------------------------ #
    print("\nmost anomalous flows versus the gravity background model:")
    for src, dst, score in top_anomalies(matrix, 5):
        print(
            f"  {int_to_ipv4([src])[0]:<16} -> {int_to_ipv4([dst])[0]:<16} "
            f"anomaly score {score:8.2f}"
        )

    summary = degree_summary(matrix)
    print(
        f"\nfinal traffic matrix: {summary['nnz']:,.0f} flows between "
        f"{summary['active_sources']:,.0f} sources and "
        f"{summary['active_destinations']:,.0f} destinations"
    )


if __name__ == "__main__":
    main()
