"""``python3 -m bench``: the benchmark's one command.

* no ``--workload``: run all four workloads, print every end-to-end and
  per-layer metric, write ``bench/out/result_seed<seed>.json`` and the stage
  budgets;
* ``--workload W --seed N --seconds S --trace 0|1``: one run as the driver
  makes it; the last stdout line is ``{"correct", "attempted", "failed",
  "metrics"}`` with the end-to-end metrics (``--trace 0``) or the per-layer
  metrics (``--trace 1``);
* ``--smoke``: the deterministic self-check (scaled streams, no wall-clock
  assertion).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import config


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="stream seed (default 1)")
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="scaled-down deterministic self-check")
    parser.add_argument("--out", help="result file (full run) or round document (internal)")
    parser.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(config.SRC, "repro")):
        print(f"bench: no program to measure: {config.SRC}/repro is missing", file=sys.stderr)
        return 2
    if config.SRC not in sys.path:
        sys.path.insert(0, config.SRC)
    if args.round:
        from .round import run_round

        return run_round(args)
    contract = config.Contract()
    if args.seconds is None:
        args.seconds = float(contract.run_seconds)
    if args.smoke and not args.workload:
        from .smoke import run_smoke

        return run_smoke(contract, args)
    from . import run

    try:
        if args.workload:
            return run.driver_run(contract, args)
        return run.full_run(contract, args)
    except run.RoundFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
