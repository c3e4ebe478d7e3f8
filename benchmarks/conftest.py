"""Shared configuration for the benchmark harness.

Every benchmark writes its report (the rows/series corresponding to the
paper's figure or headline number) both to stdout and to a text file under
``benchmarks/results/`` so the numbers survive pytest's output capturing and
can be diffed against EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable benchmark trajectory file; sections are written by the
#: individual benchmark modules via :func:`update_bench_json` so future PRs
#: can diff kernel/ingest performance against this PR's numbers.
BENCH_JSON_NAME = "BENCH_kernels.json"

#: Scale factor applied to the paper's workload sizes so the harness runs in
#: minutes on a laptop.  Override with REPRO_BENCH_SCALE=1.0 for a full run.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.001"))

#: The default scale the hard-coded workload constants were tuned for.
REFERENCE_SCALE = 0.001


def scaled(n: int, minimum: int = 1_000) -> int:
    """Scale a workload constant by BENCH_SCALE relative to the default scale.

    At the default ``REPRO_BENCH_SCALE`` this is the identity, so recorded
    numbers stay comparable across runs; smoke runs (e.g. CI at 0.0001)
    shrink the workloads proportionally, floored at ``minimum``.
    """
    return max(minimum, int(n * BENCH_SCALE / REFERENCE_SCALE))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


def write_report(results_dir: Path, name: str, lines) -> str:
    """Write a benchmark report to results/<name>.txt and return the text."""
    text = "\n".join(lines) + "\n"
    (results_dir / f"{name}.txt").write_text(text)
    print("\n" + text)
    return text


def update_bench_json(results_dir: Path, section: str, payload: dict) -> Path:
    """Merge one section into results/BENCH_kernels.json and return its path.

    Only when ``REPRO_BENCH_RECORD=1``: the file is tracked, so an ordinary
    test run (the tier-1 command collects this harness) must leave it alone.
    The file accumulates sections from every benchmark module in a single
    run; existing sections from earlier runs are overwritten, never deleted,
    so a partial rerun keeps the rest of the trajectory intact.  Provenance
    (scale, interpreter, machine) is recorded per section so sections written
    by different runs can't be mislabelled with each other's configuration.
    """
    path = results_dir / BENCH_JSON_NAME
    if os.environ.get("REPRO_BENCH_RECORD") != "1":
        return path
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data[section] = {
        **payload,
        "bench_scale": BENCH_SCALE,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
