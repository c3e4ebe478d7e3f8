"""Ablation 1: tunability of the cut parameters.

The paper: "The parameters of hierarchical hypersparse matrices rely on
controlling the number of entries in each level in the hierarchy before an
update is cascaded.  The parameters are easily tunable to achieve optimal
performance for a variety of applications."

This benchmark sweeps the first-layer cut and the number of levels for a fixed
stream and reports updates/second for each configuration.  Expected shape: an
interior optimum — cuts far smaller than the batch size cascade constantly,
cuts far larger than the distinct-entry count make layer 1 as slow as a flat
matrix — and multi-level hierarchies beat 2-level ones once the stream is
large relative to the first cut.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GeometricCuts, HierarchicalMatrix
from repro.workloads import IngestSession, paper_stream

from .conftest import write_report

pytestmark = pytest.mark.bench

N_UPDATES = 100_000
N_BATCHES = 50

#: First-layer cuts swept (batch size is N_UPDATES / N_BATCHES = 2,000).
FIRST_CUTS = [256, 2_048, 16_384, 131_072, 1_048_576]
#: Level counts swept at a fixed geometric ratio.
LEVEL_COUNTS = [2, 3, 4, 5]

_sweep_results = {}


def _run_with_cuts(cuts):
    H = HierarchicalMatrix(2**32, 2**32, "fp64", cuts=cuts)
    result = IngestSession(H, f"cuts={cuts}").run(
        paper_stream(total_entries=N_UPDATES, nbatches=N_BATCHES, seed=0)
    )
    return result, H


class TestCutSweep:
    @pytest.mark.parametrize("first_cut", FIRST_CUTS)
    def test_first_cut_sweep(self, benchmark, first_cut):
        cuts = GeometricCuts(first_cut=first_cut, ratio=8, nlevels_total=4).initial_cuts()
        (result, H) = benchmark.pedantic(_run_with_cuts, args=(cuts,), rounds=1, iterations=1)
        _sweep_results[("first_cut", first_cut)] = (
            result.updates_per_second,
            H.stats.cascades,
            H.stats.fast_memory_fraction,
        )
        assert result.total_updates == N_UPDATES

    @pytest.mark.parametrize("nlevels", LEVEL_COUNTS)
    def test_level_count_sweep(self, benchmark, nlevels):
        cuts = GeometricCuts(first_cut=2_048, ratio=16, nlevels_total=nlevels).initial_cuts()
        (result, H) = benchmark.pedantic(_run_with_cuts, args=(cuts,), rounds=1, iterations=1)
        _sweep_results[("nlevels", nlevels)] = (
            result.updates_per_second,
            H.stats.cascades,
            H.stats.fast_memory_fraction,
        )

    def test_zz_report_and_shape(self, benchmark, results_dir):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep visible under --benchmark-only
        assert _sweep_results, "sweep benchmarks must run first"
        lines = [
            "Ablation 1: cut-parameter sweep",
            f"(workload: {N_UPDATES:,} power-law updates in {N_BATCHES} batches)",
            "",
            f"{'configuration':<28} {'updates/s':>13} {'cascades':>22} {'fast-mem frac':>14}",
            "-" * 82,
        ]
        for (kind, value), (rate, cascades, frac) in _sweep_results.items():
            label = f"first_cut={value}" if kind == "first_cut" else f"levels={value}"
            lines.append(f"{label:<28} {rate:>13,.0f} {str(cascades):>22} {frac:>14.3f}")
        rates = {k: v[0] for k, v in _sweep_results.items() if k[0] == "first_cut"}
        best_cut = max(rates, key=rates.get)[1]
        lines += [
            "",
            "expected shape: interior optimum over first_cut; very small cuts cascade",
            "constantly, very large cuts degenerate toward flat accumulation.",
            f"best first_cut: {best_cut} (smallest swept: {FIRST_CUTS[0]}); "
            f"best/worst rate: {max(rates.values()) / min(rates.values()):.2f}x "
            "(recorded, not asserted)",
        ]
        write_report(results_dir, "ablation1_cut_sweep", lines)
