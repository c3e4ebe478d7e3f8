"""Outside-in tracing: spans around calls into each module's public functions.

Nothing in ``src/`` is edited.  :func:`install` replaces the public callables
listed in :func:`_targets` with wrappers that record a span (name, start, end,
parent) while :attr:`Tracer.enabled` is set and fall straight through
otherwise, so one process can run untraced and traced passes back to back.
Install before any fork: forked children (the gateway child) inherit the
wrappers and keep their own spans.  A layer's self time is its span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional

# One record per span: [name, start, end, parent index within its thread].
Span = list


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[Span]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append(local.spans)
        return local.spans, local.stack

    def begin(self, name: str) -> Span:
        spans, stack = self._state()
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(record)
        return record

    def end(self, record: Span) -> None:
        record[2] = time.perf_counter()
        self._local.stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span (a no-op while disabled)."""
        return _SpanContext(self, name)

    def drain(self) -> List[List[Span]]:
        """Hand over (and forget) the spans recorded so far, one list per thread."""
        with self._lock:
            threads = [list(spans) for spans in self._threads if spans]
            for spans in self._threads:
                del spans[:]
        return threads


_EXTRA = ("top_level", "critical")


def _blank() -> Dict[str, float]:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def totals(threads: List[List[Span]]) -> Dict[str, Dict[str, float]]:
    """``{name: {"calls", "total_s", "self_s"}}`` over drained spans.

    Two extra keys sum the spans that have no parent, i.e. what the traced
    stages cover of their threads' time: ``"top_level"`` over every thread
    (with the number of threads under ``"threads"``), ``"critical"`` over the
    busiest thread alone (the caller the wall clock waits for when callers
    finish at different times).
    """
    out: Dict[str, Dict[str, float]] = {key: _blank() for key in _EXTRA}
    out["top_level"]["threads"] = len(threads)
    for spans in threads:
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        top = _blank()
        for i, (name, start, end, parent) in enumerate(spans):
            agg = out.setdefault(name, _blank())
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += (end - start) - covered[i]
            if parent < 0:
                top["calls"] += 1
                top["total_s"] += end - start
        out["top_level"]["calls"] += top["calls"]
        out["top_level"]["total_s"] += top["total_s"]
        if top["total_s"] > out["critical"]["total_s"]:
            out["critical"] = top
    return out


def merged(*parts: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Per-name sum of several :func:`totals` results (the extra keys excluded)."""
    out: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for name, agg in part.items():
            if name in _EXTRA:
                continue
            mine = out.setdefault(name, _blank())
            for key in mine:
                mine[key] += agg[key]
    return out


def dump(path: str, phases: Dict[str, List[List[Span]]]) -> None:
    """Write spans as JSON lines: phase, thread, name, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, threads in phases.items():
            for t, spans in enumerate(threads):
                for name, start, end, parent in spans:
                    fh.write(json.dumps([phase, t, name, start, end, parent]) + "\n")


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer, self._name, self._record = tracer, name, None

    def __enter__(self):
        if self._tracer.enabled:
            self._record = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc) -> None:
        if self._record is not None:
            self._tracer.end(self._record)


def _traced(tracer: Tracer, name: str, fn: Callable, gate: Optional[Callable] = None):
    def wrapper(*args, **kwargs):
        if not tracer.enabled or (gate is not None and not gate(args[0])):
            return fn(*args, **kwargs)
        record = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(record)

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


def _has_pending(matrix) -> bool:
    # Matrix.nvals / Matrix.wait only do work (sort + collapse + merge of the
    # pending buffer) when something is pending; only those calls are flushes.
    return matrix.has_pending


def _targets():
    from repro import analytics
    from repro.core import HierarchicalMatrix
    from repro.core.reductions import IncrementalReductions
    from repro.distributed import ShardedHierarchicalMatrix, ShardRouter
    from repro.graphblas import Matrix
    from repro.service import BatchCoalescer, GatewayClient

    return [
        ("graphblas.append", Matrix, "build", None),
        ("graphblas.flush", Matrix, "nvals", _has_pending),
        ("graphblas.flush", Matrix, "wait", _has_pending),
        ("graphblas.merge", Matrix, "update", None),
        ("core.update", HierarchicalMatrix, "update", None),
        ("core.final_wait", HierarchicalMatrix, "wait", None),
        ("core.tracker_observe", IncrementalReductions, "observe", None),
        ("core.tracker_absorb", IncrementalReductions, "absorb_flush", None),
        ("analytics.degree_summary", analytics, "degree_summary", None),
        ("analytics.top_sources", analytics, "top_sources", None),
        ("distributed.update", ShardedHierarchicalMatrix, "update", None),
        ("distributed.route", ShardRouter, "route", None),
        ("distributed.finalize", ShardedHierarchicalMatrix, "finalize", None),
        ("service.client_update", GatewayClient, "update", None),
        ("service.sync", GatewayClient, "sync", None),
        ("service.snapshot_read", GatewayClient, "stats", None),
        ("service.coalesce_add", BatchCoalescer, "add", None),
        ("service.coalesce_flush", BatchCoalescer, "flush", None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    undo = []
    for name, owner, attr, gate in _targets():
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            patched = property(_traced(tracer, name, original.fget, gate), doc=original.__doc__)
        else:
            patched = _traced(tracer, name, original, gate)
        setattr(owner, attr, patched)
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in undo:
            setattr(owner, attr, original)

    return restore
