"""Fixed configuration of the benchmark, and the contract file that names its metrics.

``BENCHMARK.json`` at the repository root is the single table of workload
names, metric names, units, directions and bounds; the code here only reads
it, so a metric cannot be printed under a name or unit the contract does not
list.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", "out")
CONTRACT_PATH = os.path.join(ROOT, "BENCHMARK.json")

# The matrix every workload builds: the paper's IPv4 traffic-matrix shape.
NROWS = NCOLS = 2 ** 32
DTYPE = "fp64"
CUTS = (2 ** 13, 2 ** 16, 2 ** 19)
ALPHA = 1.3

# name -> (total updates, batches).  ``bulk`` keeps the paper's batch shape
# (every batch of 100,000 exceeds c_1, so every update call flushes and
# cascades); ``trickle`` is packet-window sized (1,000 < c_1, so most update
# calls only append).
STREAMS = {"bulk": (8_000_000, 80), "trickle": (2_000_000, 2_000)}
SMOKE_SCALE = 100  # --smoke divides the update counts by this, batches by 10

SHARDS = 2
SOCKET_REPLAYS = 3  # sharded_socket replays trickle this many times per repeat
GATEWAY_CLIENTS = 2
GATEWAY_COALESCE = 8192
GATEWAY_FLUSH_INTERVAL = 0.005
SYNC_EVERY = 25  # gateway frames between syncs (and client 0's stats reads)
QUERY_EVERY = 20  # engine_trickle_reads batches between query pairs
PRESSURE_EVERY = 100  # sharded_socket batches between ingest_pressure samples
TOP_K = 10

# Steady-state reads issued after the clock stops, per repeat, on the two
# workloads whose stream is unqueried (so their query percentiles exist).
STEADY_QUERIES = {"engine_bulk": 100, "sharded_socket": 35}

# After the clock stops, the three workloads without a client protocol time
# their durability barrier (wait() / finalize()) behind ACK_PROBES windows of
# ACK_WINDOW updates each, so "ack" means one thing on every workload: how
# long a caller blocks in the barrier with a bounded window outstanding.
ACK_PROBES = 200
ACK_WINDOW = 1_000

# One driver run is ROUNDS fresh processes, so set-up is paid (and timed)
# several times and the timed repeats pool over several address-space
# layouts.  Every round measures for seconds/ROUNDS but never fewer than
# MIN_REPEATS passes, which keeps the pooled count at or above five.
ROUNDS = 3
MIN_REPEATS = 2  # also the untraced passes a traced round runs first
TRACED_PASSES = 2  # a traced round reports the less disturbed (faster) of these

STAGE_SUM_RANGE = (0.90, 1.10)

# Expected to be exactly 0, which the contract's end_to_end list forbids, so
# it is judged from here: any increase is a regression.
FAILED_SHARE = {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0}


class Contract:
    """Read-only view of ``BENCHMARK.json``."""

    def __init__(self, path: str = CONTRACT_PATH):
        with open(path, "r", encoding="utf-8") as fh:
            self.raw = json.load(fh)
        self.workloads: List[str] = [w["name"] for w in self.raw["workloads"]]
        self.end_to_end: Dict[str, dict] = {m["name"]: m for m in self.raw["end_to_end"]}
        self.per_layer: Dict[str, dict] = {m["name"]: m for m in self.raw["per_layer"]}
        self.run_seconds: int = int(self.raw["run_seconds"])

    @property
    def judged(self) -> Dict[str, dict]:
        """The end-to-end metrics a full run prints and ``bench.compare`` judges."""
        return {**self.end_to_end, FAILED_SHARE["name"]: FAILED_SHARE}

    def unit(self, name: str) -> str:
        spec = self.end_to_end.get(name) or self.per_layer.get(name)
        if spec is None:
            raise KeyError(f"metric {name!r} is not listed in BENCHMARK.json")
        return spec["unit"]

    def dress(self, values: Dict[str, float], names) -> Dict[str, dict]:
        """``{name: {"value", "unit"}}`` for exactly ``names``; missing ones raise."""
        return {n: {"value": float(values[n]), "unit": self.unit(n)} for n in names}
