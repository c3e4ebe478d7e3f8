"""Turn round documents into metrics, result files and the stage-budget tables."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from typing import Dict, Iterable, List

from . import config


def percentile(samples: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; 0.0 for no samples."""
    data = sorted(samples)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quartiles(values: List[float]):
    """``(q1, q3)`` as ``statistics.quantiles(n=4)`` gives them; degenerate for < 2 values."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: List[float]) -> float:
    """Interquartile range over the median (0.0 when it cannot be computed)."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def pool_end_to_end(rounds: List[dict]) -> Dict[str, dict]:
    """End-to-end metrics of one workload from its untraced passes.

    Each entry has the headline ``value``, the sample count ``n`` behind it and
    the per-pass (or per-round) ``raw`` values the spread is judged on.
    """
    passes = [p for r in rounds for p in r["passes"]]
    rates = [p["updates"] / p["wall_s"] for p in passes]
    queries = [q for p in passes for q in p["queries_ms"]]
    acks = [a for p in passes for a in p["acks_ms"]]
    firsts = [p["first_query_ms"] for p in passes if p["first_query_ms"] is not None]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    def entry(value, n, raw):
        return {"value": value, "n": n, "raw": raw}

    return {
        "updates_per_s": entry(median(rates), len(rates), rates),
        "query_p50_ms": entry(percentile(queries, 50), len(queries), [percentile(p["queries_ms"], 50) for p in passes]),
        "query_p95_ms": entry(percentile(queries, 95), len(queries), [percentile(p["queries_ms"], 95) for p in passes]),
        "ack_p50_ms": entry(percentile(acks, 50), len(acks), [percentile(p["acks_ms"], 50) for p in passes]),
        "ack_p95_ms": entry(percentile(acks, 95), len(acks), [percentile(p["acks_ms"], 95) for p in passes]),
        "first_query_ms": entry(median(firsts), len(firsts), firsts),
        "peak_rss_mb": entry(median(r["peak_rss_mb"] for r in rounds), len(rounds), [r["peak_rss_mb"] for r in rounds]),
        "setup_s": entry(median(r["setup_s"] for r in rounds), len(rounds), [r["setup_s"] for r in rounds]),
        "failed_share": entry(failed / attempted if attempted else 1.0, attempted, [p["failed"] / max(p["attempted"], 1) for p in passes]),
    }


def accounting(rounds: List[dict]) -> Dict[str, object]:
    """``correct`` / ``attempted`` / ``failed`` over every pass of every round."""
    passes = [p for r in rounds for p in r["passes"]] + [r["traced"] for r in rounds if "traced" in r]
    layer = [r["traced"]["layer"] for r in rounds if "traced" in r]
    lo, hi = config.STAGE_SUM_RANGE
    return {
        "attempted": max(sum(p["attempted"] for p in passes), 1),
        "failed": sum(p["failed"] for p in passes),
        "correct": bool(
            passes
            and all(r["warmup_identical"] for r in rounds)
            and all(p["correct"] for p in passes)
            # A budget that does not add up is a harness bug, not a result.
            and all(lo <= m["trace.stage_sum_share"] <= hi for m in layer)
        ),
    }


def provenance(seed: int) -> Dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=config.ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": seed,
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1min_at_start": os.getloadavg()[0],
    }


def noise_flags(contract: config.Contract, prov: dict, end_to_end: Dict[str, dict]) -> List[str]:
    """Reasons to call this workload's numbers unresolved (empty when none)."""
    flags = []
    if prov["loadavg_1min_at_start"] > (prov["nproc"] or 1):
        flags.append(f"load average {prov['loadavg_1min_at_start']:.2f} exceeded nproc at start")
    for name, spec in contract.end_to_end.items():
        wide = spread(end_to_end[name]["raw"])
        if wide > spec["bound"]:
            flags.append(f"{name}: repeat IQR/median {wide:.3f} exceeds bound {spec['bound']}")
    return flags


# (layer label, span name) in the order a budget reads best: outside in.
_BUDGET_ROWS = [
    ("service client update", "service.client_update"),
    ("service sync", "service.sync"),
    ("service snapshot read", "service.snapshot_read"),
    ("analytics degree_summary", "analytics.degree_summary"),
    ("analytics top_sources", "analytics.top_sources"),
    ("distributed update", "distributed.update"),
    ("distributed route", "distributed.route"),
    ("distributed finalize", "distributed.finalize"),
    ("core update", "core.update"),
    ("core final wait", "core.final_wait"),
    ("core tracker observe", "core.tracker_observe"),
    ("core tracker absorb", "core.tracker_absorb"),
    ("graphblas append", "graphblas.append"),
    ("graphblas flush", "graphblas.flush"),
    ("graphblas merge", "graphblas.merge"),
]


def _stage_rows(stages: dict, clock: float) -> List[str]:
    return [
        f"{label:<28}{stages[span]['calls']:>9}{stages[span]['self_s']:>11.4f}{stages[span]['self_s'] / clock:>15.3f}"
        for label, span in _BUDGET_ROWS
        if span in stages
    ]


def budget_text(workload: str, traced: dict, end_to_end: Dict[str, dict]) -> str:
    """The human-readable stage budget of one traced pass."""
    stages, layer, wall = traced["stages"], traced["layer"], traced["wall_s"]
    threads = stages["top_level"]["threads"]
    clock = wall * threads
    lines = [
        f"stage budget: {workload}  (one traced pass, {wall:.3f} s wall, {threads} caller thread(s))",
        f"{'layer':<28}{'calls':>9}{'self s':>11}{'share of wall':>15}",
    ]
    lines += _stage_rows(stages, clock)
    covered = stages["top_level"]["total_s"]
    lines.append(f"{'untraced (glue, idle caller)':<28}{'':>9}{clock - covered:>11.4f}{(clock - covered) / clock:>15.3f}")
    lines.append(
        f"stage_sum_share {layer['trace.stage_sum_share']:.3f}   overhead_share {layer['trace.overhead_share']:+.3f}"
    )
    rate = traced["updates"] / wall
    core, inproc = layer["core.trickle_updates_per_s"], layer["distributed.inproc_updates_per_s"]
    lines += [
        "",
        "ladder (trickle stream, upd/s; each cost is a difference of two recorded rates)",
        f"  one HierarchicalMatrix, no reads   {core:>14,.0f}",
        f"  + router, 2 in-process shards      {inproc:>14,.0f}   router cost {1e6 / inproc - 1e6 / core:+.3f} us/update",
    ]
    if layer["distributed.update_calls"]:
        lines.append(
            f"  this workload (traced pass)        {rate:>14,.0f}   over in-process {1e6 / rate - 1e6 / inproc:+.3f} us/update"
        )
    if layer.get("distributed.send_s"):  # a process wire behind the router
        lines += [
            "",
            "wall_over_sum decomposition (single clock vs summed shard rates)",
            f"  rate_sum {layer['distributed.rate_sum']:,.0f} upd/s over {layer['distributed.worker_busy_s']:.3f} worker-busy s;"
            f" wall_over_sum {layer['distributed.wall_over_sum']:.3f}",
            f"  parent wall {wall:.3f} s = route {layer['distributed.route_s']:.3f} + send {layer['distributed.send_s']:.3f}"
            f" + finalize {layer['distributed.finalize_s']:.3f} + glue {wall - covered:.3f}",
            f"  shard_skew {layer['distributed.shard_skew']:.4f}   ingest_pressure_max {layer['distributed.ingest_pressure_max']:.3f}",
        ]
    if traced["child_stages"]:
        cpu = layer["service.gateway_cpu_s"]
        lines += [
            "",
            "gateway child (where the gap to the in-process rate goes)",
            f"{'layer':<28}{'calls':>9}{'self s':>11}{'share of wall':>15}",
            *_stage_rows(traced["child_stages"], wall),
            f"  child CPU {cpu:.3f} s ({layer['service.gateway_cpu_share']:.2f} of wall)",
            f"    engine behind the router (distributed.update) {layer['distributed.update_s']:.3f}",
            f"    coalescer add {layer['service.coalesce_add_s']:.3f}  flush {layer['service.coalesce_flush_s']:.3f}",
            f"    snapshot reads (degree_summary) {layer['analytics.degree_summary_s']:.3f}",
            f"    frame read / decode / dispatch (overhead) {layer['service.gateway_overhead_s']:.3f}",
            f"  frames per router batch {layer['service.frames_per_router_batch']:.2f}"
            f"   backpressure waits {layer['service.backpressure_waits']:.0f}",
        ]
    lines += ["", "end to end (tracing off)"]
    lines += [f"  {name:<18}{m['value']:>16,.4f}   n={m['n']}" for name, m in end_to_end.items()]
    return "\n".join(lines) + "\n"
