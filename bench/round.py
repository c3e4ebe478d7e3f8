"""One round: a fresh process that sets a workload up, warms it, and measures it.

The orchestrator (``bench.run``) starts several rounds per run so that set-up
is paid and timed more than once and the timed passes pool over more than one
process.  A round writes one JSON document to ``--out`` and prints nothing on
stdout; its stderr (and that of the agents, workers and gateway child it
forks) is pointed at a log file by the orchestrator.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from . import config, streams
from .harness import Repeat, tree_rss_mib
from .trace import Tracer, dump, install
from .wl_engine import EngineWorkload, rung_core
from .wl_gateway import GatewayWorkload
from .wl_sharded import ShardedSocketWorkload, rung_inproc


_FACTORIES = {
    "engine_bulk": lambda *a, **k: EngineWorkload("engine_bulk", *a, reads=False, **k),
    "engine_trickle_reads": lambda *a, **k: EngineWorkload("engine_trickle_reads", *a, reads=True, **k),
    "sharded_socket": ShardedSocketWorkload,
    "gateway_clients": GatewayWorkload,
}
WORKLOADS = tuple(_FACTORIES)


def make_workload(name: str, seed: int, tracer: Tracer, *, smoke: bool = False):
    if name not in _FACTORIES:
        raise SystemExit(f"unknown workload {name!r}")
    return _FACTORIES[name](seed, tracer, smoke=smoke)


def _untraced_passes(workload, seconds: float, at_least: int):
    """Timed passes with tracing off: for ``seconds``, and never fewer than ``at_least``.

    Returns the passes and the process tree's peak RSS sampled right after pass
    ``at_least``, so the memory metric does not depend on how many more passes
    happened to fit into ``seconds``.
    """
    passes: List[Repeat] = []
    rss = 0.0
    deadline = time.perf_counter() + seconds
    while len(passes) < at_least or time.perf_counter() < deadline:
        passes.append(workload.repeat(False))
        if len(passes) == at_least:
            rss = tree_rss_mib()
    return passes, rss


def _ladder(seed: int, smoke: bool) -> Dict[str, float]:
    """The ladder rungs: the trickle stream at two truncations of the stack.

    Router, wire and gateway costs are then each a difference of two recorded
    rates on one stream.  Run before the workload is set up, because the rate
    of a pass depends on what the process's allocator has seen before it; a
    fresh process is the one state all four workloads share.  Best of two
    passes: interference only ever slows a pass.
    """
    trickle = streams.generate("trickle", seed, smoke=smoke).batches
    return {
        "core.trickle_updates_per_s": max(rung_core(trickle) for _ in range(2)),
        "distributed.inproc_updates_per_s": max(rung_inproc(trickle) for _ in range(2)),
    }


def _traced_pass(workload, baseline: List[Repeat], ladder: Dict[str, float]) -> Repeat:
    # Interference only ever slows a pass, so the fastest traced pass and the
    # fastest untraced pass of this process are the least disturbed pair.
    traced = min((workload.repeat(True) for _ in range(config.TRACED_PASSES)), key=lambda p: p.wall_s)
    layer = traced.layer
    untraced_wall = min(p.wall_s for p in baseline)
    layer["trace.overhead_share"] = (traced.wall_s - untraced_wall) / untraced_wall
    layer["trace.stage_sum_share"] = traced.stages["critical"]["total_s"] / traced.wall_s
    layer["workloads.generate_s"] = workload.stream.generate_s
    layer["workloads.distinct_share"] = workload.ref.distinct_share
    layer.update(ladder)
    return traced


def run_round(args) -> int:
    tracer = Tracer()
    ladder: Dict[str, float] = {}
    if args.trace:
        install(tracer)  # before any fork, so children inherit the wrappers
        ladder = _ladder(args.seed, args.smoke)  # so a traced round's setup_s includes it
    workload = make_workload(args.workload, args.seed, tracer, smoke=args.smoke)
    doc: Dict[str, object] = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        workload.setup()
        doc["warmup_identical"] = bool(workload.warmup())
        doc["setup_s"] = time.time() - args.t0
        if args.trace:
            baseline, rss = _untraced_passes(workload, 0.0, config.MIN_REPEATS)
            doc["traced"] = vars(_traced_pass(workload, baseline, ladder))
        else:
            baseline, rss = _untraced_passes(workload, args.seconds, config.MIN_REPEATS)
        doc["passes"] = [vars(p) for p in baseline]
        doc["peak_rss_mb"] = rss
    finally:
        workload.close()
    if args.trace:
        dump(os.path.join(os.path.dirname(args.out), f"spans_{args.workload}.jsonl"), workload.phases)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, default=float)
    return 0
