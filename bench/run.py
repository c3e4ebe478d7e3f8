"""The orchestrator: start rounds, pool what they measured, print and record it."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List

from . import config, report

RUN_DEADLINE_S = 170.0  # one run must end within the contract's 180 s


class RoundFailed(RuntimeError):
    pass


def _end_group(pgid: int) -> None:
    """Kill whatever is left of a round's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _spawn_round(name: str, seed: int, seconds: float, trace: bool, smoke: bool, index: int, deadline: float) -> dict:
    os.makedirs(config.OUT_DIR, exist_ok=True)
    out = os.path.join(config.OUT_DIR, f"round_{name}_{os.getpid()}_{index}.json")
    log = os.path.join(config.OUT_DIR, f"{name}.log")
    cmd = [
        sys.executable, "-m", "bench", "--round", "--workload", name, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)), "--out", out,
    ]  # fmt: skip
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (config.SRC, env.get("PYTHONPATH")) if p)
    with open(log, "ab") as logfh:
        # Its own session, so the agents, workers and gateway child it forks
        # can be ended as one group whatever happens to the round itself.
        proc = subprocess.Popen(
            cmd + ["--t0", repr(time.time())],
            cwd=config.ROOT, env=env, stdout=logfh, stderr=logfh, start_new_session=True,
        )  # fmt: skip
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _end_group(proc.pid)
            proc.wait()
    try:
        if code != 0:
            raise RoundFailed(f"round {index} of {name} ended with {code}; see {log}")
        with open(out, "r", encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        if os.path.exists(out):
            os.remove(out)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> List[dict]:
    """The round documents of one run: ROUNDS untraced rounds, or one traced round."""
    rounds = 1 if trace else config.ROUNDS
    deadline = time.monotonic() + RUN_DEADLINE_S
    return [
        _spawn_round(name, seed, seconds / rounds, trace, smoke, k, deadline) for k in range(rounds)
    ]


def layer_values(contract: config.Contract, docs: List[dict]) -> Dict[str, float]:
    """Every per-layer metric of a traced run; a layer the workload never enters reads 0."""
    measured = docs[0]["traced"]["layer"]
    unknown = set(measured) - set(contract.per_layer)
    if unknown:
        raise KeyError(f"per-layer metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {name: float(measured.get(name, 0.0)) for name in contract.per_layer}


def driver_run(contract: config.Contract, args) -> int:
    """One ``--workload`` run; the last stdout line is the contract's result object."""
    if args.workload not in contract.workloads:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    docs = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    result = report.accounting(docs)
    if args.trace:
        result["metrics"] = contract.dress(layer_values(contract, docs), contract.per_layer)
    else:
        pooled = report.pool_end_to_end(docs)
        result["metrics"] = contract.dress(
            {n: pooled[n]["value"] for n in contract.end_to_end}, contract.end_to_end
        )
    print(json.dumps(result))
    return 0


def full_run(contract: config.Contract, args) -> int:
    """All workloads, untraced then traced; prints every metric and writes the artifacts."""
    prov = report.provenance(args.seed)
    doc = {"provenance": prov, "workloads": {}}
    ok = True
    for name in contract.workloads:
        untraced = run_workload(name, args.seed, args.seconds, False, args.smoke)
        traced = run_workload(name, args.seed, args.seconds, True, args.smoke)
        end_to_end = report.pool_end_to_end(untraced)
        layer = layer_values(contract, traced)
        acct = report.accounting(untraced + traced)
        flags = report.noise_flags(contract, prov, end_to_end)
        ok = ok and acct["correct"]
        doc["workloads"][name] = {
            **acct, "unresolved": flags, "end_to_end": end_to_end, "per_layer": layer,
        }  # fmt: skip
        with open(os.path.join(config.OUT_DIR, f"budget_{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(report.budget_text(name, traced[0]["traced"], end_to_end))

        print(f"== {name}: correct={acct['correct']} attempted={acct['attempted']} failed={acct['failed']}")
        for metric, m in end_to_end.items():
            spec = contract.judged[metric]
            print(
                f"  {metric:<38}{m['value']:>18,.4f} {spec['unit']:<8} n={m['n']:<7}"
                f" spread={report.spread(m['raw']):.3f} bound={spec['bound']}"
            )
        for metric, value in layer.items():
            print(f"  {metric:<38}{value:>18,.4f} {contract.unit(metric):<8} n=1")
        for flag in flags:
            print(f"  UNRESOLVED: {flag}")
    path = args.out or os.path.join(config.OUT_DIR, f"result_seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"result file: {path}; stage budgets: {config.OUT_DIR}/budget_<workload>.txt")
    return 0 if ok else 1
