"""Input streams and the numpy reference the results are checked against.

The program under test receives only the generated arrays.  The reference is
an independent computation: packed-key ``np.unique`` with counts, no code of
the system involved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import config

Batch = Tuple[np.ndarray, np.ndarray, np.ndarray]

# Seeds one apart would share all but one per-batch seed (paper_stream seeds
# batch i with seed + i), so the benchmark seed is spread out first.
_SEED_STRIDE = 1_000_003


@dataclass
class Stream:
    name: str
    batches: List[Batch]
    updates: int
    generate_s: float


@dataclass
class Reference:
    keys: np.ndarray  # sorted distinct (row << 32 | col)
    counts: np.ndarray  # float64 multiplicity of each key (all-ones values)
    updates: int

    @property
    def nnz(self) -> int:
        return int(self.keys.size)

    @property
    def distinct_share(self) -> float:
        return self.keys.size / self.updates


def generate(name: str, seed: int, *, smoke: bool = False) -> Stream:
    """The ``bulk`` or ``trickle`` stream for ``seed`` (deterministic)."""
    from repro.workloads import paper_stream

    total, nbatches = config.STREAMS[name]
    if smoke:
        total, nbatches = total // config.SMOKE_SCALE, nbatches // 10
    start = time.perf_counter()
    batches = [
        (b.rows, b.cols, b.values)
        for b in paper_stream(
            total,
            nbatches,
            alpha=config.ALPHA,
            nnodes=config.NROWS,
            seed=int(seed) * _SEED_STRIDE,
        )
    ]
    elapsed = time.perf_counter() - start
    return Stream(name, batches, sum(b[0].size for b in batches), elapsed)


def probe_windows(stream: Stream) -> List[Batch]:
    """``ACK_PROBES`` windows of at most ``ACK_WINDOW`` updates cut from the stream's head."""
    windows: List[Batch] = []
    for r, c, v in stream.batches:
        for lo in range(0, r.size, config.ACK_WINDOW):
            if len(windows) == config.ACK_PROBES:
                return windows
            hi = lo + config.ACK_WINDOW
            windows.append((r[lo:hi], c[lo:hi], v[lo:hi]))
    return windows


def _pack(rows, cols) -> np.ndarray:
    return (np.asarray(rows, np.uint64) << np.uint64(32)) | np.asarray(cols, np.uint64)


def reference(stream: Stream) -> Reference:
    rows = np.concatenate([b[0] for b in stream.batches])
    cols = np.concatenate([b[1] for b in stream.batches])
    keys, counts = np.unique(_pack(rows, cols), return_counts=True)
    return Reference(keys, counts.astype(np.float64), stream.updates)


def coo_matches(ref: Reference, rows, cols, vals, *, replays: int = 1) -> bool:
    """True when sorted COO triples equal the reference bit for bit."""
    if rows.size != ref.keys.size:
        return False
    return bool(
        np.array_equal(_pack(rows, cols), ref.keys)
        and np.array_equal(np.asarray(vals, np.float64), ref.counts * float(replays))
    )


def summary_matches(ref: Reference, summary: dict, *, replays: int = 1) -> bool:
    """Per-repeat check: exact ``nnz`` and ``total_traffic`` of a degree summary."""
    return (
        summary.get("nnz") == float(ref.nnz)
        and summary.get("total_traffic") == float(ref.updates * replays)
    )
