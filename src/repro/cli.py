"""Command-line entry points.

Five commands mirror the paper's experiments and the serving architecture:

* ``repro-ingest`` — measure the single-instance streaming update rate
  (Headline A: "over 1,000,000 updates per second in a single instance");
* ``repro-fig2`` — print the full Figure 2 table (measured+modelled series next
  to the published reference curves);
* ``repro-shard`` — shard one externally supplied stream (power-law edges,
  synthetic packet traffic, or a replayed triple file) across K worker shards
  and report per-shard and aggregate rates plus the globally merged matrix;
* ``repro-node`` — host shard workers behind a listening TCP endpoint, the
  agent half of multi-node serving (``repro-shard --nodes host:port,...`` is
  the router half);
* ``repro-gateway`` — serve a sharded matrix behind the asyncio ingest
  gateway (``serve``), stream a synthetic workload into a running gateway as
  a client (``send``), or query its snapshot statistics (``stats``).

Every command prints plain aligned text; ``--json`` (where offered) prints one
machine-readable object instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
from typing import List, Optional, Sequence

from .baselines import FlatGraphBLASIngestor, HierarchicalD4MIngestor
from .core import HierarchicalMatrix
from .distributed import (
    ShardedHierarchicalMatrix,
    build_figure2_table,
    format_table,
)
from .workloads import (
    IngestSession,
    batched,
    normalize_batch,
    paper_stream,
    synthetic_packets,
)

__all__ = [
    "main_ingest",
    "main_fig2",
    "main_shard",
    "main_node",
    "main_gateway",
]


def _exact_stream(batches, total: int):
    """Trim a batch stream to exactly ``total`` updates (partial final batch).

    Synthetic generators emit whole windows/batches; requesting 1,000 updates
    at a 10,000-packet window must not stream 10,000 — the same rounding rule
    :func:`~repro.distributed.worker.stream_powerlaw` follows.
    """
    remaining = int(total)
    for batch in batches:
        if remaining <= 0:
            break
        rows, cols, values = normalize_batch(batch)
        n = int(np.asarray(rows).size)
        if n > remaining:
            rows, cols = rows[:remaining], cols[:remaining]
            if not np.isscalar(values):
                values = values[:remaining]
            n = remaining
        yield rows, cols, values
        remaining -= n


def _parse_cuts(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_nodes(text: Optional[str]) -> Optional[List[str]]:
    """``--nodes HOST:PORT,...`` -> endpoint list (None when not given)."""
    if text is None:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


# --------------------------------------------------------------------------- #
# repro-ingest
# --------------------------------------------------------------------------- #


def main_ingest(argv: Optional[Sequence[str]] = None) -> int:
    """Measure the single-instance streaming update rate (Headline A)."""
    parser = argparse.ArgumentParser(
        prog="repro-ingest",
        description="Stream a power-law workload into one hierarchical hypersparse matrix "
        "and report updates/second.",
    )
    parser.add_argument("--updates", type=int, default=1_000_000, help="total element updates")
    parser.add_argument("--batches", type=int, default=100, help="number of update batches")
    parser.add_argument(
        "--cuts", type=_parse_cuts, default=[2 ** 17, 2 ** 20, 2 ** 23],
        help="comma-separated cut thresholds, e.g. 131072,1048576,8388608",
    )
    parser.add_argument(
        "--system",
        choices=["hierarchical", "flat", "hierarchical-d4m"],
        default="hierarchical",
        help="which ingest system to measure",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="emit a JSON result object")
    args = parser.parse_args(argv)

    if args.system == "hierarchical":
        ingestor = HierarchicalMatrix(2 ** 32, 2 ** 32, "fp64", cuts=args.cuts)
    elif args.system == "flat":
        ingestor = FlatGraphBLASIngestor(2 ** 32, 2 ** 32)
    else:
        ingestor = HierarchicalD4MIngestor(cuts=args.cuts)

    session = IngestSession(ingestor, args.system)
    scale = args.updates / 100_000_000
    result = session.run(paper_stream(scale=scale, nbatches=args.batches, seed=args.seed))

    if args.json:
        print(json.dumps(result.as_row(), indent=2))
    else:
        print(f"system:              {result.system}")
        print(f"total updates:       {result.total_updates:,}")
        print(f"elapsed seconds:     {result.elapsed_seconds:.3f}")
        print(f"updates per second:  {result.updates_per_second:,.0f}")
        if result.metadata:
            print(f"cascades per layer:  {result.metadata.get('cascades')}")
            print(f"fast-memory share:   {result.metadata.get('fast_memory_fraction', 0):.3f}")
    return 0


# --------------------------------------------------------------------------- #
# repro-fig2
# --------------------------------------------------------------------------- #


def main_fig2(argv: Optional[Sequence[str]] = None) -> int:
    """Print the Figure 2 table (rate versus number of servers, all systems)."""
    parser = argparse.ArgumentParser(
        prog="repro-fig2",
        description="Measure per-instance rates for hierarchical GraphBLAS and "
        "hierarchical D4M, extrapolate them with the SuperCloud model, and print "
        "them next to the published Figure 2 reference curves.",
    )
    parser.add_argument("--updates", type=int, default=300_000, help="updates per measured system")
    parser.add_argument("--d4m-updates", type=int, default=30_000, help="updates for the D4M measurement")
    parser.add_argument("--cuts", type=_parse_cuts, default=[2 ** 17, 2 ** 20, 2 ** 23])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    hier = HierarchicalMatrix(2 ** 32, 2 ** 32, "fp64", cuts=args.cuts)
    hier_result = IngestSession(hier, "hier-graphblas").run(
        paper_stream(scale=args.updates / 100_000_000, nbatches=100, seed=args.seed)
    )
    d4m = HierarchicalD4MIngestor(cuts=[1000, 10_000, 100_000])
    d4m_result = IngestSession(d4m, "hier-d4m").run(
        paper_stream(scale=args.d4m_updates / 100_000_000, nbatches=20, seed=args.seed)
    )
    rows = build_figure2_table(
        {
            "Hierarchical GraphBLAS (measured)": hier_result.updates_per_second,
            "Hierarchical D4M (measured)": d4m_result.updates_per_second,
        }
    )
    print(format_table(rows))
    return 0


# --------------------------------------------------------------------------- #
# repro-shard
# --------------------------------------------------------------------------- #


def main_shard(argv: Optional[Sequence[str]] = None) -> int:
    """Shard one external stream across K worker shards and report rates."""
    parser = argparse.ArgumentParser(
        prog="repro-shard",
        description="Route an externally supplied stream (power-law edges, synthetic "
        "packet traffic, or a replayed triple file) across K hierarchical shards, "
        "then merge and sanity-check the global matrix.",
    )
    parser.add_argument("--shards", type=int, default=2, help="number of shards K")
    parser.add_argument(
        "--partition", choices=["hash", "range"], default="hash",
        help="coordinate partitioning strategy",
    )
    parser.add_argument(
        "--source", choices=["powerlaw", "traffic"], default="powerlaw",
        help="synthetic stream to shard (ignored with --replay)",
    )
    parser.add_argument(
        "--replay", metavar="FILE", default=None,
        help="replay a row<TAB>col<TAB>value triple file as the stream",
    )
    parser.add_argument("--updates", type=int, default=100_000, help="total element updates")
    parser.add_argument("--batch-size", type=int, default=10_000, help="updates per stream batch")
    parser.add_argument(
        "--cuts", type=_parse_cuts, default=[2 ** 17, 2 ** 20, 2 ** 23]
    )
    parser.add_argument(
        "--processes", action="store_true",
        help="back shards with long-lived worker processes forked by this "
        "router (default: in-process)",
    )
    parser.add_argument(
        "--nodes", metavar="HOST:PORT,...", default=None,
        help="comma-separated repro-node agent endpoints hosting the worker "
        "processes instead (implies --processes)",
    )
    parser.add_argument(
        "--replicas", type=int, default=0,
        help="replica workers per shard: ingest is mirrored so a dead "
        "primary (or node) fails over with zero lost updates",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print the incrementally maintained traffic statistics (degree "
        "summary + top supernodes) served without materialising the shards",
    )
    parser.add_argument(
        "--rebalance", choices=["auto", "manual"], default=None,
        help="migrate slabs between live shards mid-stream: 'auto' checks the "
        "per-shard nnz imbalance periodically and moves a slab from the most "
        "to the least loaded shard whenever it exceeds --imbalance-threshold; "
        "'manual' forces exactly one migration at the stream midpoint. "
        "Ingest never stops; the partition-map epoch fences in-flight batches.",
    )
    parser.add_argument(
        "--imbalance-threshold", type=float, default=1.5,
        help="max/mean per-shard nnz ratio tolerated before an auto "
        "rebalance fires (default 1.5; 1.0 is perfectly even)",
    )
    parser.add_argument(
        "--auto-rejoin", action="store_true",
        help="run the hands-off AutoRejoiner supervisor alongside ingest: "
        "replica slots retired by a failover are re-dialed with back-off and "
        "resynced from a primary checkpoint without stopping the stream "
        "(requires --replicas > 0)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    if args.auto_rejoin and args.replicas <= 0:
        parser.error("--auto-rejoin requires --replicas > 0")

    if args.replay is not None:
        from .graphblas.io import read_triples_arrays

        rows, cols, vals = read_triples_arrays(args.replay)
        stream = batched(rows, cols, vals, batch_size=args.batch_size)
        # Replay ignores --updates; cadence math below must use the real
        # stream length or a short capture would never hit its midpoint.
        stream_updates = int(np.asarray(rows).size)
    elif args.source == "traffic":
        nwindows = max(-(-args.updates // args.batch_size), 1)
        stream = _exact_stream(
            synthetic_packets(args.batch_size, nwindows, seed=args.seed),
            args.updates,
        )
        stream_updates = args.updates
    else:
        nbatches = max(-(-args.updates // args.batch_size), 1)
        stream = _exact_stream(
            paper_stream(
                total_entries=nbatches * args.batch_size,
                nbatches=nbatches,
                seed=args.seed,
            ),
            args.updates,
        )
        stream_updates = args.updates

    nodes = _parse_nodes(args.nodes)
    matrix = ShardedHierarchicalMatrix(
        args.shards,
        2 ** 32,
        2 ** 32,
        cuts=args.cuts,
        partition=args.partition,
        use_processes=args.processes or nodes is not None,
        nodes=nodes,
        replicas=args.replicas,
    )
    transport_in_force = matrix.transport
    expected_batches = max(-(-stream_updates // args.batch_size), 1)
    rebalance_events = []
    rejoiner = None
    with matrix:
        wall_start = time.perf_counter()
        check_every = max(expected_batches // 4, 1)
        if args.auto_rejoin:
            # Same stream-relative clock trick as the rebalancer below: the
            # supervisor's back-off schedule advances in batch units, so a
            # still-down agent is retried every check_every batches, doubling
            # up to its cap, instead of wall-clock polling.
            from .service import AutoRejoiner

            rejoiner = AutoRejoiner(
                matrix, interval=float(check_every), clock=lambda: 0.0
            )
        if args.rebalance is None and rejoiner is None:
            total = matrix.ingest(stream)
        else:
            # Interleave live migrations with the stream: ingest continues on
            # every other shard while a slab moves, and batches routed before
            # a migration are fenced by the wire's barrier ordering.
            rebalancer = None
            if args.rebalance == "auto":
                # The policy (trigger/settle hysteresis, cool-down after a
                # migration, fruitless-check back-off) lives in the service
                # layer's AutoRebalancer; this loop just advances its clock
                # in batch units so the cadence stays stream-relative.
                from .service import AutoRebalancer

                rebalancer = AutoRebalancer(
                    matrix,
                    trigger=args.imbalance_threshold,
                    interval=float(check_every),
                    cooldown=float(check_every),
                    clock=lambda: 0.0,
                )
            count = 0
            for batch in stream:
                rows, cols, values = normalize_batch(batch)
                matrix.update(rows, cols, values)
                count += 1
                if rebalancer is not None:
                    rebalance_events.extend(rebalancer.maybe_step(now=float(count)))
                elif args.rebalance == "manual" and count == max(
                    expected_batches // 2, 1
                ):
                    report = matrix.rebalance()
                    if report is not None:
                        rebalance_events.append(report)
                if rejoiner is not None:
                    rejoiner.maybe_step(now=float(count))
            total = matrix.total_updates
        matrix.finalize()
        wall = time.perf_counter() - wall_start
        imbalance_final = matrix.imbalance() if args.rebalance else None
        map_epoch = matrix.map_epoch
        reports = matrix.reports()
        stats = None
        supernodes = None
        if args.stats:
            from .analytics import degree_summary, supernode_report

            # Served from the shards' incremental reduction vectors — no
            # materialize, and the shards keep streaming undisturbed.
            stats = degree_summary(matrix)
            supernodes = supernode_report(matrix, 5)
        nvals = matrix.materialize().nvals
    rate_sum = sum(r.updates_per_second for r in reports)
    rate_wall = total / wall if wall > 0 else 0.0

    if args.json:
        payload = {
            "shards": args.shards,
            "partition": args.partition,
            "transport": transport_in_force,
            "source": "replay" if args.replay else args.source,
            "total_updates": total,
            "wall_seconds": wall,
            "aggregate_rate_sum": rate_sum,
            "aggregate_rate_wall": rate_wall,
            "global_nvals": nvals,
            "per_shard": [
                {
                    "shard": r.worker_id,
                    "updates": r.total_updates,
                    "seconds": r.elapsed_seconds,
                    "updates_per_second": r.updates_per_second,
                    "nvals": r.final_nvals,
                }
                for r in reports
            ],
        }
        if stats is not None:
            payload["stats"] = stats
            payload["supernodes"] = supernodes
        if args.rebalance is not None:
            payload["rebalance"] = {
                "mode": args.rebalance,
                "map_epoch": map_epoch,
                "imbalance_final": imbalance_final,
                "events": [
                    {
                        "epoch": r.epoch,
                        "source": r.source,
                        "dest": r.dest,
                        "moved": r.moved,
                        "slab_lo": r.slab[0],
                        "slab_hi": r.slab[1],
                        "imbalance_before": r.imbalance_before,
                    }
                    for r in rebalance_events
                ],
            }
        if rejoiner is not None:
            payload["rejoin"] = {
                "checks": rejoiner.checks,
                "rejoined": len(rejoiner.events),
                "events": rejoiner.events,
            }
        print(json.dumps(payload, indent=2))
    else:
        print(f"shards:                {args.shards} ({args.partition} partition)")
        print(f"transport:             {transport_in_force}")
        print(f"source:                {'replay ' + args.replay if args.replay else args.source}")
        print(f"total updates:         {total:,}")
        print(f"wall seconds:          {wall:.3f}")
        print(f"{'shard':>8} {'updates':>12} {'seconds':>10} {'updates/s':>14}")
        for r in reports:
            print(
                f"{r.worker_id:>8} {r.total_updates:>12,} "
                f"{r.elapsed_seconds:>10.3f} {r.updates_per_second:>14,.0f}"
            )
        print(f"aggregate rate (sum):  {rate_sum:,.0f} updates/s")
        print(f"aggregate rate (wall): {rate_wall:,.0f} updates/s")
        print(f"global nvals:          {nvals:,}")
        if args.rebalance is not None:
            print(
                f"rebalance:             {args.rebalance}, "
                f"{len(rebalance_events)} migration(s), map epoch {map_epoch}, "
                f"final imbalance {imbalance_final:.3f}"
            )
            for r in rebalance_events:
                print(
                    f"  epoch {r.epoch}: shard {r.source} -> {r.dest}, "
                    f"{r.moved:,} entries, imbalance before {r.imbalance_before:.3f}"
                )
        if rejoiner is not None:
            print(
                f"auto-rejoin:           {len(rejoiner.events)} rejoin(s) "
                f"over {rejoiner.checks} check(s)"
            )
            for ev in rejoiner.events:
                print(f"  batch {ev['at']:.0f}: shard {ev['shard']} slot {ev['slot']} resynced")
        if stats is not None:
            print("--- incremental traffic statistics (no materialize) ---")
            print(f"nnz:                   {stats['nnz']:,.0f}")
            print(f"total traffic:         {stats['total_traffic']:,.0f}")
            print(f"active sources:        {stats['active_sources']:,.0f}")
            print(f"active destinations:   {stats['active_destinations']:,.0f}")
            print(f"max out/in degree:     {stats['max_out_degree']:,.0f} / "
                  f"{stats['max_in_degree']:,.0f}")
            print(f"top source share:      {supernodes['top_source_share']:.3f}")
            print(f"top destination share: {supernodes['top_destination_share']:.3f}")
            print(f"{'source':>12} {'traffic':>12} {'fan-out':>8}")
            for ident, traffic, fan in supernodes["top_sources"]:
                print(f"{ident:>12} {traffic:>12,.0f} {fan:>8}")
    return 0


# --------------------------------------------------------------------------- #
# repro-node
# --------------------------------------------------------------------------- #


def main_node(argv: Optional[Sequence[str]] = None) -> int:
    """Host shard workers behind a listening endpoint (the agent half of
    multi-node serving)."""
    parser = argparse.ArgumentParser(
        prog="repro-node",
        description="Listen for shard-worker connections from a repro-shard "
        "router (--nodes).  Each accepted connection forks one "
        "worker process owning a private hierarchical matrix; the agent "
        "serves until interrupted.",
    )
    parser.add_argument("--host", default="0.0.0.0", help="bind address (default all interfaces)")
    parser.add_argument(
        "--port", type=int, default=0,
        help="listening port (default 0: pick a free port and print it)",
    )
    args = parser.parse_args(argv)

    from .distributed.node import NodeAgent, format_address

    agent = NodeAgent(host=args.host, port=args.port)
    # The connect string routers pass via --nodes; printed first and flushed
    # so wrappers that spawn agents can scrape the chosen port.
    print(f"listening on {format_address(agent.address)}", flush=True)
    try:
        agent.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        agent.close()
    return 0


# --------------------------------------------------------------------------- #
# repro-gateway
# --------------------------------------------------------------------------- #


def main_gateway(argv: Optional[Sequence[str]] = None) -> int:
    """Serve, feed, or query the asyncio ingest gateway."""
    parser = argparse.ArgumentParser(
        prog="repro-gateway",
        description="Async ingestion gateway over a sharded hierarchical matrix: "
        "'serve' hosts one, 'send' streams a synthetic workload into it as a "
        "client, 'stats' queries its snapshot statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="host a gateway over a sharded matrix")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0,
        help="listening port (default 0: pick a free port and print it)",
    )
    serve.add_argument("--shards", type=int, default=2, help="number of shards K")
    serve.add_argument("--partition", choices=["hash", "range"], default="hash")
    serve.add_argument("--cuts", type=_parse_cuts, default=[2 ** 17, 2 ** 20, 2 ** 23])
    serve.add_argument(
        "--processes", action="store_true",
        help="back shards with long-lived worker processes forked by the gateway",
    )
    serve.add_argument(
        "--nodes", metavar="HOST:PORT,...", default=None,
        help="repro-node agent endpoints hosting the worker processes instead "
        "(implies --processes)",
    )
    serve.add_argument("--replicas", type=int, default=0, help="replica workers per shard")
    serve.add_argument(
        "--coalesce", type=int, default=8192,
        help="updates per coalesced router batch (default 8192)",
    )
    serve.add_argument(
        "--auto-rebalance", action="store_true",
        help="run the hands-off AutoRebalancer policy alongside ingest",
    )
    serve.add_argument(
        "--imbalance-threshold", type=float, default=1.5,
        help="auto-rebalance trigger: max/mean per-shard nnz ratio (default 1.5)",
    )
    serve.add_argument(
        "--auto-rejoin", action="store_true",
        help="run the hands-off AutoRejoiner supervisor alongside ingest: "
        "replica slots retired by a failover are re-dialed with back-off and "
        "resynced without stopping the gateway (requires --replicas > 0)",
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds then exit (default: until interrupted)",
    )

    send = sub.add_parser("send", help="stream a synthetic workload into a gateway")
    send.add_argument("address", help="gateway HOST:PORT")
    send.add_argument("--updates", type=int, default=100_000, help="total element updates")
    send.add_argument("--batch-size", type=int, default=1_000, help="updates per client batch")
    send.add_argument(
        "--source", choices=["powerlaw", "traffic"], default="powerlaw",
        help="synthetic stream to send",
    )
    send.add_argument("--seed", type=int, default=0)
    send.add_argument("--json", action="store_true")

    stats = sub.add_parser("stats", help="query a running gateway's statistics")
    stats.add_argument("address", help="gateway HOST:PORT")
    stats.add_argument("--top", type=int, default=5, help="supernodes to list")
    stats.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "serve":
        from .distributed.node import format_address
        from .service import AutoRebalancer, AutoRejoiner, IngestGateway

        nodes = _parse_nodes(args.nodes)
        if args.auto_rejoin and args.replicas <= 0:
            serve.error("--auto-rejoin requires --replicas > 0")
        matrix = ShardedHierarchicalMatrix(
            args.shards,
            2 ** 32,
            2 ** 32,
            cuts=args.cuts,
            partition=args.partition,
            use_processes=args.processes or nodes is not None,
            nodes=nodes,
            replicas=args.replicas,
        )
        rebalancer = None
        if args.auto_rebalance:
            rebalancer = AutoRebalancer(matrix, trigger=args.imbalance_threshold)
        rejoiner = None
        if args.auto_rejoin:
            rejoiner = AutoRejoiner(matrix)
        gateway = IngestGateway(
            matrix,
            host=args.host,
            port=args.port,
            coalesce_updates=args.coalesce,
            rebalancer=rebalancer,
            rejoiner=rejoiner,
            own_matrix=True,
        )
        gateway.start()
        # The connect string clients pass; printed first and flushed so
        # wrappers that spawn gateways can scrape the chosen port.
        print(f"gateway listening on {format_address(gateway.address)}", flush=True)
        try:
            if args.duration is not None:
                time.sleep(args.duration)
            else:  # pragma: no cover - interactive serving
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        finally:
            gateway.close()
        metrics = gateway.metrics()
        print(f"clients served:        {metrics['clients_total']}")
        print(f"updates routed:        {metrics['routed_updates']:,}")
        print(f"batches routed:        {metrics['routed_batches']:,}")
        if rejoiner is not None:
            print(f"replicas rejoined:     {len(rejoiner.events)}")
        return 0

    from .service import GatewayClient

    if args.command == "send":
        if args.source == "traffic":
            nwindows = max(-(-args.updates // args.batch_size), 1)
            stream = _exact_stream(
                synthetic_packets(args.batch_size, nwindows, seed=args.seed),
                args.updates,
            )
        else:
            nbatches = max(-(-args.updates // args.batch_size), 1)
            stream = _exact_stream(
                paper_stream(
                    total_entries=nbatches * args.batch_size,
                    nbatches=nbatches,
                    seed=args.seed,
                ),
                args.updates,
            )
        with GatewayClient(args.address) as client:
            start = time.perf_counter()
            batches = 0
            for rows, cols, values in stream:
                client.update(rows, cols, values)
                batches += 1
            ack = client.sync()
            elapsed = time.perf_counter() - start
        rate = ack["acked"] / elapsed if elapsed > 0 else 0.0
        if args.json:
            print(json.dumps({
                "sent_updates": client.sent_updates,
                "acked_updates": ack["acked"],
                "batches": batches,
                "seconds": elapsed,
                "updates_per_second": rate,
                "epoch": ack["epoch"],
            }, indent=2))
        else:
            print(f"sent updates:          {client.sent_updates:,}")
            print(f"acked updates:         {ack['acked']:,}")
            print(f"batches:               {batches:,}")
            print(f"seconds:               {elapsed:.3f}")
            print(f"rate:                  {rate:,.0f} updates/s")
            print(f"map epoch:             {ack['epoch']}")
        return 0

    with GatewayClient(args.address) as client:
        summary = client.stats()
        supernodes = client.top(args.top)
        events = client.rebalance_events()
        epoch = client.epoch()
    if args.json:
        print(json.dumps({
            "stats": summary,
            "supernodes": supernodes,
            "rebalance_events": events,
            "map_epoch": epoch,
        }, indent=2))
    else:
        print(f"map epoch:             {epoch}")
        print(f"nnz:                   {summary['nnz']:,.0f}")
        print(f"total traffic:         {summary['total_traffic']:,.0f}")
        print(f"active sources:        {summary['active_sources']:,.0f}")
        print(f"active destinations:   {summary['active_destinations']:,.0f}")
        print(f"max out/in degree:     {summary['max_out_degree']:,.0f} / "
              f"{summary['max_in_degree']:,.0f}")
        print(f"{'source':>12} {'traffic':>12} {'fan-out':>8}")
        for ident, traffic, fan in supernodes["top_sources"]:
            print(f"{ident:>12} {traffic:>12,.0f} {fan:>8}")
        print(f"rebalance events:      {len(events)}")
        for ev in events:
            print(
                f"  epoch {ev['epoch']}: shard {ev['source']} -> {ev['dest']}, "
                f"{ev['moved']:,} entries, imbalance before "
                f"{ev['imbalance_before']:.3f}"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_ingest())
