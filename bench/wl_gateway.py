"""``gateway_clients``: two socket clients in, an IngestGateway and 2 in-process shards behind.

Closed loop, two clients.  The gateway (``coalesce_updates=8192``,
``flush_interval=0.005``) runs in a forked child so the system and the load
generator do not share an interpreter lock; the benchmark process runs two
``GatewayClient`` connections on two threads, each sending its half of the
trickle stream as 1,000-update frames.  Every 25 frames a client times a
``sync()`` (the ack), and client 0 also times a ``stats()`` read; the final
``sync()`` is inside the clock.  Client encode, frame read/dispatch and the
coalescer do the work; there is no process wire behind the gateway.
"""

from __future__ import annotations

import multiprocessing as mp
import resource
import threading
import time
from typing import Dict, Optional

from . import config, streams
from .harness import Ops, Repeat, collect_stages, ms, span_metrics
from .trace import Tracer, merged, totals
from .wl_engine import alloc_counters, alloc_delta
from .wl_sharded import make_sharded, report_metrics


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _serve_gateway(pipe, tracer: Tracer) -> None:
    """Child main: owns the matrix and the gateway, obeys commands from the pipe.

    Matrix reads here happen only between passes, when every client has
    synced and disconnected, so they never race the gateway's loop thread.
    """
    from repro.service import IngestGateway

    gateway = matrix = None
    allocs = alloc_counters()

    def shut() -> None:
        if gateway is not None:
            gateway.close()
            matrix.close()

    while True:
        cmd = pipe.recv()
        if cmd == "new":
            shut()
            matrix = make_sharded()
            gateway = IngestGateway(
                matrix,
                coalesce_updates=config.GATEWAY_COALESCE,
                flush_interval=config.GATEWAY_FLUSH_INTERVAL,
            ).start()
            pipe.send(gateway.address)
        elif cmd == "trace_on":
            tracer.drain()
            allocs = alloc_counters()
            tracer.enabled = True
            pipe.send(_cpu_seconds())
        elif cmd == "collect":
            tracer.enabled = False
            pipe.send(
                {
                    "cpu_s": _cpu_seconds(),
                    "metrics": gateway.metrics(),
                    "stages": totals(tracer.drain()),
                    "allocs": alloc_delta(allocs),
                    "reports": matrix.reports(),
                }
            )
        elif cmd == "coo":
            pipe.send(matrix.materialize().extract_tuples())
        else:  # "stop"
            shut()
            return


class GatewayWorkload:
    name = "gateway_clients"

    def __init__(self, seed: int, tracer: Tracer, *, smoke: bool = False):
        self.seed, self.smoke, self.tracer = seed, smoke, tracer
        self.stream: Optional[streams.Stream] = None
        self.ref: Optional[streams.Reference] = None
        self.pipe = self.child = None
        self.phases: Dict[str, list] = {}

    def setup(self) -> None:
        self.stream = streams.generate("trickle", self.seed, smoke=self.smoke)
        self.ref = streams.reference(self.stream)
        # Fork while this process is still single-threaded (client threads
        # exist only inside a pass) and after the trace wrappers are in place.
        ctx = mp.get_context("fork")
        self.pipe, child_end = ctx.Pipe()
        self.child = ctx.Process(target=_serve_gateway, args=(child_end, self.tracer), daemon=True)
        self.child.start()
        child_end.close()

    def _ask(self, cmd: str):
        self.pipe.send(cmd)
        return self.pipe.recv()

    def _client_loop(self, k: int, client, frames, gate, out) -> None:
        ops = Ops()
        acks, queries, sent, acked = [], [], 0, 0
        last = len(frames)
        gate.wait()
        for j, (r, c, v) in enumerate(frames, 1):
            dt, _ = ops.timed(client.update, r, c, v)
            if dt is not None:
                sent += r.size
            if j % config.SYNC_EVERY == 0 and j != last:
                dt, _ = ops.timed(client.sync)
                if dt is not None:
                    acks.append(dt)
                if k == 0:
                    dt, _ = ops.timed(client.stats)
                    if dt is not None:
                        queries.append(dt)
        dt, reply = ops.timed(client.sync)
        if dt is not None:
            acks.append(dt)
            acked = int(reply["acked"])
        out[k] = (ops, acks, queries, sent, acked, time.perf_counter())

    def _pass(self, traced: bool):
        from repro.service import GatewayClient

        address = self._ask("new")
        clients = [GatewayClient(address) for _ in range(config.GATEWAY_CLIENTS)]
        try:
            cpu0 = self._ask("trace_on") if traced else 0.0
            before = alloc_counters()
            out: Dict[int, tuple] = {}
            # The clock runs from the moment every client thread is released
            # to the moment the last one has its final ack.
            gate = threading.Barrier(len(clients) + 1)
            threads = [
                threading.Thread(
                    target=self._client_loop,
                    args=(k, client, self.stream.batches[k :: config.GATEWAY_CLIENTS], gate, out),
                )
                for k, client in enumerate(clients)
            ]
            self.tracer.enabled = traced
            for t in threads:
                t.start()
            gate.wait()
            start = time.perf_counter()
            for t in threads:
                t.join()
            wall = max(o[5] for o in out.values()) - start if out else time.perf_counter() - start
            run = collect_stages(self.tracer, self.phases, "run") if traced else {}

            ops = Ops()
            acks, queries, sent, acked = [], [], 0, 0
            for k in sorted(out):
                ops.absorb(out[k][0])
                acks += out[k][1]
                queries += out[k][2]
                sent += out[k][3]
                acked += out[k][4]
            dt, summary = ops.timed(clients[0].stats)
            first = None if dt is None else dt * 1e3
            correct = ops.check(
                len(out) == len(clients)
                and acked == sent == self.stream.updates
                and summary is not None
                and streams.summary_matches(self.ref, summary)
            )
            result = Repeat(wall, acked, ms(acks), ms(queries), first, ops.attempted, ops.failed, correct)
            if traced:
                post = collect_stages(self.tracer, self.phases, "post")
                self.tracer.enabled = False
                child = self._ask("collect")
                result.stages, result.child_stages = run, child["stages"]
                result.layer = self._layer(run, post, child, cpu0, alloc_delta(before), result)
            return result
        finally:
            for client in clients:
                client.close()

    def _layer(self, run, post, child, cpu0, allocs, result: Repeat) -> Dict[str, float]:
        layer = span_metrics(merged(run, post, child["stages"]))
        for name, count in child["allocs"].items():
            layer[name] = allocs[name] + count
        cpu = child["cpu_s"] - cpu0
        layer["service.gateway_cpu_s"] = cpu
        layer["service.gateway_cpu_share"] = cpu / result.wall_s
        # What the child burned outside its named stages: frame read, decode
        # and dispatch in the asyncio loop.
        layer["service.gateway_overhead_s"] = cpu - (
            layer["service.coalesce_add_s"]
            + layer["service.coalesce_flush_s"]
            + layer["distributed.update_s"]
            + layer["analytics.degree_summary_s"]
        )
        gw = child["metrics"]
        frames = layer["service.client_update_calls"]
        layer["service.routed_batches"] = gw["routed_batches"]
        layer["service.frames_per_router_batch"] = frames / max(gw["routed_batches"], 1)
        for key in ("backpressure_waits", "rejected_frames", "errors", "max_buffered_updates"):
            layer[f"service.{key}"] = gw[key]
        layer["analytics.query_share"] = span_metrics(run)["service.snapshot_read_s"] / result.wall_s
        layer.update(report_metrics(child["reports"], result.updates / result.wall_s))
        return layer

    def warmup(self) -> bool:
        result = self._pass(False)
        coo = self._ask("coo")
        return result.correct and streams.coo_matches(self.ref, *coo)

    def repeat(self, traced: bool) -> Repeat:
        return self._pass(traced)

    def close(self) -> None:
        if self.child is None:
            return
        try:
            self.pipe.send("stop")
        except OSError:
            pass
        self.child.join(timeout=20)
        if self.child.is_alive():
            self.child.kill()
            self.child.join()
        self.pipe.close()
