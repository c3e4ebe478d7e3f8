#!/usr/bin/env python
"""D4M associative arrays: string-keyed traffic analysis.

Before the GraphBLAS hypersparse path, the paper's group analysed traffic with
D4M associative arrays — sparse matrices whose rows and columns are labelled by
arbitrary strings (IP addresses, domains, timestamps).  This example shows the
associative-array workflow on a small web-log-style dataset and the hierarchical
D4M cascade the paper uses as its main prior-work baseline:

* building an Assoc from string triples,
* addition (union of keys), subscripting by prefix/range, transpose,
* the hierarchical D4M ingestor versus flat D4M ingest.

Run:  python examples/d4m_associative_arrays.py
"""

import numpy as np

from repro.baselines import FlatD4MIngestor, HierarchicalD4MIngestor
from repro.d4m import Assoc
from repro.workloads import IngestSession, paper_stream


def build_weblog_assoc() -> Assoc:
    """A tiny web-log: who fetched what."""
    clients = [
        "10.0.0.1", "10.0.0.1", "10.0.0.2", "10.0.0.2",
        "10.0.0.3", "192.168.7.9", "192.168.7.9", "10.0.0.1",
    ]
    urls = [
        "/index.html", "/login", "/index.html", "/api/data",
        "/index.html", "/login", "/admin", "/api/data",
    ]
    return Assoc(clients, urls, 1.0)


def main() -> None:
    # ------------------------------------------------------------------ #
    # basic associative-array algebra
    # ------------------------------------------------------------------ #
    A = build_weblog_assoc()
    print(f"web-log associative array: {A!r}")
    print(A.display())

    # Another observation window arrives; adding Assocs unions the keys.
    B = Assoc(["10.0.0.9", "10.0.0.1"], ["/index.html", "/index.html"], 1.0)
    total = A + B
    print(f"\nafter adding a second window: {total.nnz} distinct (client, url) pairs")
    print(f"requests for /index.html by 10.0.0.1: {total.getval('10.0.0.1', '/index.html')}")

    # Subscripting by prefix: all clients in 10.0.0.0/24.
    internal = total["10.0.0.*", :]
    print(f"rows matching '10.0.0.*': {sorted(internal.row)}")

    # Column sums = requests per URL; row sums = requests per client.
    print("\nrequests per URL:")
    for _, url, count in total.sum_rows():
        print(f"  {url:<14} {count:.0f}")

    # ------------------------------------------------------------------ #
    # hierarchical D4M versus flat D4M ingest (the Fig. 2 baseline)
    # ------------------------------------------------------------------ #
    print("\ningesting a power-law stream through D4M associative arrays ...")
    hier = HierarchicalD4MIngestor(cuts=[500, 5_000, 50_000])
    flat = FlatD4MIngestor()
    stream = lambda: paper_stream(total_entries=8_000, nbatches=20, seed=3)  # noqa: E731
    hier_result = IngestSession(hier, "hierarchical D4M").run(stream())
    flat_result = IngestSession(flat, "flat D4M").run(stream())
    print(f"  hierarchical D4M: {hier_result.updates_per_second:,.0f} updates/s")
    print(f"  flat D4M:         {flat_result.updates_per_second:,.0f} updates/s")
    print(
        "  hierarchical/flat speedup: "
        f"{hier_result.updates_per_second / flat_result.updates_per_second:.2f}x"
    )
    assert hier.materialize() == flat.materialize()
    print("  both produce identical associative arrays: OK")


if __name__ == "__main__":
    main()
