"""``python3 -m bench.compare A.json B.json``: did B get worse than A?

A and B are result files written by a full ``python3 -m bench`` run.  One row
per (workload, end-to-end metric): both headline values with the quartiles of
their per-pass values, the ratio B/A (A is the base), and a verdict:

* ``regressed``  B is worse than A by more than the metric's bound;
* ``unresolved`` either side's run-to-run spread (IQR/median of its per-pass
  values) is wider than the bound, or a noise guard fired, so neither "worse"
  nor "unchanged" can be said;
* ``ok``         otherwise.

``failed_share`` has no tolerance: any increase is a regression.  The exit
code is 1 when any row regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple

from . import config, report


def _verdict(spec: dict, a: dict, b: dict, noisy: bool) -> str:
    base, new = a["value"], b["value"]
    worse = (base - new) if spec["better"] == "higher" else (new - base)
    if spec["bound"] == 0.0:  # failed_share: any increase
        return "regressed" if worse > 0 else "ok"
    if noisy or max(report.spread(a["raw"]), report.spread(b["raw"])) > spec["bound"]:
        return "unresolved"
    return "regressed" if base and worse / abs(base) > spec["bound"] else "ok"


def compare(contract: config.Contract, a_doc: dict, b_doc: dict) -> Tuple[List[str], bool]:
    specs = contract.judged
    lines = [
        f"A: commit {a_doc['provenance']['commit'][:12]} seed {a_doc['provenance']['seed']}"
        f"   B: commit {b_doc['provenance']['commit'][:12]} seed {b_doc['provenance']['seed']}",
        f"{'workload':<22}{'metric':<16}{'A [q1, q3]':>50}{'B [q1, q3]':>50}{'B/A':>8}  verdict",
    ]
    regressed = False
    for workload in contract.workloads:
        wa, wb = a_doc["workloads"].get(workload), b_doc["workloads"].get(workload)
        if wa is None or wb is None:
            lines.append(f"{workload:<22}missing from {'A' if wa is None else 'B'}")
            regressed = True
            continue
        load_noise = any("load average" in flag for flag in wa["unresolved"] + wb["unresolved"])
        for metric, spec in specs.items():
            a, b = wa["end_to_end"][metric], wb["end_to_end"][metric]
            verdict = _verdict(spec, a, b, load_noise)
            regressed = regressed or verdict == "regressed"
            cells = [
                "{:,.4f} [{:,.4f}, {:,.4f}]".format(m["value"], *report.quartiles(m["raw"])) for m in (a, b)
            ]
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            lines.append(
                f"{workload:<22}{metric:<16}{cells[0]:>50}{cells[1]:>50}{ratio:>8.3f}  {verdict}"
            )
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    lines, regressed = compare(config.Contract(), *docs)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
