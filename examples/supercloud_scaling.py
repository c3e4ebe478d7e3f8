#!/usr/bin/env python
"""Reproduce Figure 2: aggregate update rate versus number of servers.

The paper's experiment is embarrassingly parallel: every process owns an
independent hierarchical hypersparse matrix and streams its own power-law
graph.  This example:

1. measures the per-instance update rate locally (one real ingest),
2. shards one stream over two local hierarchical matrices (independent
   instances whose measured rates add),
3. extrapolates to the MIT SuperCloud configuration (28 instances/node,
   up to 1,100 nodes) with the weak-scaling model,
4. prints the rate-versus-servers table next to the published Figure 2 curves.

Run:  python examples/supercloud_scaling.py
"""

from repro.baselines import PAPER_HEADLINE_RATE, HierarchicalD4MIngestor
from repro.core import HierarchicalMatrix
from repro.distributed import (
    ClusterConfig,
    ShardedHierarchicalMatrix,
    SuperCloudModel,
    build_figure2_table,
    format_table,
)
from repro.workloads import IngestSession, paper_stream

CUTS = [4_096, 32_768, 262_144]


def main() -> None:
    # --- 1. single-instance rate (the quantity everything scales from) --- #
    hier = HierarchicalMatrix(2**32, 2**32, "fp64", cuts=CUTS)
    hier_result = IngestSession(hier, "hierarchical GraphBLAS").run(
        paper_stream(total_entries=200_000, nbatches=50, seed=0)
    )
    print(
        f"single-instance hierarchical GraphBLAS rate: "
        f"{hier_result.updates_per_second:,.0f} updates/s"
    )

    d4m = HierarchicalD4MIngestor(cuts=[1_000, 10_000, 100_000])
    d4m_result = IngestSession(d4m, "hierarchical D4M").run(
        paper_stream(total_entries=10_000, nbatches=10, seed=0)
    )
    print(
        f"single-instance hierarchical D4M rate:       "
        f"{d4m_result.updates_per_second:,.0f} updates/s"
    )

    # --- 2. two local shards (independent instances, rates add) --------- #
    with ShardedHierarchicalMatrix(2, cuts=CUTS) as sharded:
        sharded.ingest(paper_stream(total_entries=100_000, nbatches=10, seed=1))
        sharded.finalize()
        print(
            f"\nlocal shards ({sharded.nshards} instances): "
            f"sum of per-shard rates = {sharded.aggregate_rate_sum:,.0f} updates/s"
        )

    # --- 3. SuperCloud projection ---------------------------------------- #
    model = SuperCloudModel(ClusterConfig.paper_configuration())
    projection = model.headline_projection(hier_result.updates_per_second)
    print("\nprojection to the paper's headline configuration:")
    print(f"  nodes x instances:        1,100 x 28 = {projection['instances']:,.0f}")
    print(f"  modelled aggregate rate:  {projection['aggregate_rate']:,.0f} updates/s")
    print(f"  paper headline rate:      {PAPER_HEADLINE_RATE:,} updates/s")
    print(f"  ratio (repro / paper):    {projection['ratio_to_paper']:.2f}x")

    # --- 4. the full Figure 2 table --------------------------------------- #
    rows = build_figure2_table(
        {
            "Hierarchical GraphBLAS (measured)": hier_result.updates_per_second,
            "Hierarchical D4M (measured)": d4m_result.updates_per_second,
        },
        server_counts=(1, 4, 16, 64, 256, 1100),
    )
    print("\nFigure 2 table (measured+model series alongside published curves):\n")
    print(format_table(rows))


if __name__ == "__main__":
    main()
