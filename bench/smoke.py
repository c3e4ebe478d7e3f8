"""``python3 -m bench --smoke``: the benchmark checks itself, with no wall-clock assertion.

Streams are scaled by 1/100 and every workload runs one traced round twice
with the same seed.  Checked: the workload and metric names the code produces
are exactly the sets in ``BENCHMARK.json`` and every one has a unit; every
result check passes; ``trace.stage_sum_share`` closes; the exact counters
repeat exactly across the two runs; and an injected refusing ingestor shows up
as failed operations instead of a crash.
"""

from __future__ import annotations

import contextlib
import os
from typing import List

from . import config, report, run
from .fakes import RefusingIngestor
from .round import WORKLOADS
from .trace import Tracer
from .wl_engine import EngineWorkload, make_matrix

_CASCADES = ("core.cascades_l1", "core.cascades_l2", "core.cascades_l3")
# Counters that are a pure function of the seed.  Behind the gateway the
# coalescer's windows depend on flush-tick timing, so only the routing skew
# is exact there.
EXACT = {
    "engine_bulk": _CASCADES + ("graphblas.pack_calls",),
    "engine_trickle_reads": _CASCADES + ("graphblas.pack_calls",),
    "sharded_socket": _CASCADES + ("graphblas.pack_calls", "distributed.shard_skew"),
    "gateway_clients": ("distributed.shard_skew",),
}


def _refusal_is_counted(seed: int) -> bool:
    workload = EngineWorkload(
        "engine_trickle_reads", seed, Tracer(), reads=True, smoke=True,
        make_matrix=lambda: RefusingIngestor(make_matrix()),
    )  # fmt: skip
    workload.setup()
    # The injected refusals print their tracebacks; keep them off the console.
    os.makedirs(config.OUT_DIR, exist_ok=True)
    with open(os.path.join(config.OUT_DIR, "smoke_refusals.log"), "w", encoding="utf-8") as log:
        with contextlib.redirect_stderr(log):
            result = workload.repeat(False)
    return result.failed > 0 and not result.correct and result.failed < result.attempted


def run_smoke(contract: config.Contract, args) -> int:
    problems: List[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    expect(set(contract.workloads) == set(WORKLOADS), "workload names differ from BENCHMARK.json")
    produced_layers = set()
    lo, hi = config.STAGE_SUM_RANGE
    for name in contract.workloads:
        first, second = (run.run_workload(name, args.seed, 0.0, True, smoke=True) for _ in range(2))
        pooled = report.pool_end_to_end(first)
        expect(
            set(pooled) - {"failed_share"} == set(contract.end_to_end),
            f"{name}: end-to-end names differ from BENCHMARK.json",
        )
        contract.dress({n: pooled[n]["value"] for n in contract.end_to_end}, contract.end_to_end)
        layers = [doc[0]["traced"]["layer"] for doc in (first, second)]
        produced_layers |= set(layers[0])
        run.layer_values(contract, first)  # raises on a name the contract lacks
        for docs in (first, second):
            acct = report.accounting(docs)
            expect(acct["correct"] and acct["failed"] == 0, f"{name}: result check failed")
        share = layers[0]["trace.stage_sum_share"]
        expect(lo <= share <= hi, f"{name}: stage_sum_share {share:.3f} does not close")
        for counter in EXACT[name]:
            expect(
                layers[0][counter] == layers[1][counter],
                f"{name}: {counter} differs across two runs of one seed "
                f"({layers[0][counter]} vs {layers[1][counter]})",
            )
    expect(produced_layers == set(contract.per_layer), "per-layer names differ from BENCHMARK.json")
    expect(_refusal_is_counted(args.seed), "a refusing ingestor did not show up as failed operations")

    for problem in problems:
        print(f"smoke: FAIL {problem}")
    if not problems:
        print(
            f"smoke: ok ({len(contract.workloads)} workloads, {len(contract.end_to_end)} end-to-end"
            f" and {len(contract.per_layer)} per-layer metrics, counters exact, refusal counted)"
        )
    return 1 if problems else 0
