"""Pieces every workload shares: operation accounting, RSS, span totals -> metrics."""

from __future__ import annotations

import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from . import trace


class Ops:
    """Counts attempted and failed operations.

    An operation that raises (or is refused) counts as failed and contributes
    no latency sample; the first few tracebacks go to stderr, which the
    orchestrator points at ``bench/out/*.log``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def timed(self, fn: Callable, *args):
        """Run one operation; returns ``(seconds, result)``, seconds None on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # the op boundary: record, count, keep the run going
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return None, None
        return time.perf_counter() - start, result

    def check(self, ok: bool) -> bool:
        """Count one result check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def absorb(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


@dataclass
class Repeat:
    """What one timed pass of a workload produced."""

    wall_s: float
    updates: int  # updates made durable by the final wait/finalize/sync
    acks_ms: List[float]
    queries_ms: List[float]
    first_query_ms: Optional[float]
    attempted: int
    failed: int
    correct: bool
    layer: Dict[str, float] = field(default_factory=dict)  # traced passes only
    stages: Dict[str, Dict[str, float]] = field(default_factory=dict)  # span totals
    child_stages: Dict[str, Dict[str, float]] = field(default_factory=dict)  # gateway child


def ms(seconds: List[float]) -> List[float]:
    return [s * 1e3 for s in seconds]


def tree_rss_mib() -> float:
    """Peak resident MiB of this process plus every live descendant (VmHWM sum)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we were listing
        children.setdefault(ppid, []).append(int(entry))
    total_kib, todo = 0, [os.getpid()]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


# span name -> (calls metric or None, total-seconds metric or None, self-seconds metric or None)
_SPAN_METRICS = {
    "graphblas.append": ("graphblas.append_calls", "graphblas.append_s", None),
    "graphblas.flush": ("graphblas.flush_calls", "graphblas.flush_s", None),
    "graphblas.merge": ("graphblas.merge_calls", "graphblas.merge_s", None),
    "core.update": ("core.update_calls", "core.update_s", "core.update_self_s"),
    "core.final_wait": (None, "core.final_wait_s", None),
    "core.tracker_observe": (None, "core.tracker_observe_s", None),
    "core.tracker_absorb": (None, "core.tracker_absorb_s", None),
    "core.tracker_catchup": (None, "core.tracker_catchup_s", None),
    "analytics.degree_summary": ("analytics.degree_summary_calls", "analytics.degree_summary_s", None),
    "analytics.top_sources": (None, "analytics.top_sources_s", None),
    "distributed.update": ("distributed.update_calls", "distributed.update_s", None),
    "distributed.route": ("distributed.route_calls", "distributed.route_s", None),
    "distributed.finalize": (None, "distributed.finalize_s", None),
    "distributed.stats_gather": (None, "distributed.stats_gather_s", None),
    "service.client_update": ("service.client_update_calls", "service.client_update_s", None),
    "service.sync": ("service.sync_calls", "service.sync_s", None),
    "service.snapshot_read": (None, "service.snapshot_read_s", None),
    "service.coalesce_add": (None, "service.coalesce_add_s", None),
    "service.coalesce_flush": (None, "service.coalesce_flush_s", None),
}


def span_metrics(stages: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer call counts and seconds from span totals (absent stages read 0)."""
    out: Dict[str, float] = {}
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for span, (calls, total, self_s) in _SPAN_METRICS.items():
        agg = stages.get(span, zero)
        if calls:
            out[calls] = agg["calls"]
        if total:
            out[total] = agg["total_s"]
        if self_s:
            out[self_s] = agg["self_s"]
    return out


def collect_stages(tracer: trace.Tracer, phases: Dict[str, list], phase: str):
    """Drain the tracer into ``phases[phase]`` and return that phase's totals."""
    threads = tracer.drain()
    phases.setdefault(phase, []).extend(threads)
    return trace.totals(threads)
