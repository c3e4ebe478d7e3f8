"""Service layer: the always-on front door over the sharded engine.

The library below this package is caller-driven: one thread owns a
:class:`~repro.distributed.ShardedHierarchicalMatrix`, streams batches into
it, and decides when to poll :meth:`imbalance` and migrate slabs.  The paper's
deployment story — a traffic matrix absorbing updates from millions of
independent sensors while dashboards read stats continuously — needs the
opposite shape: many small writers, occasional readers, nobody in charge.
This package provides it as a composition of already-tested mechanisms:

* :class:`IngestGateway` — an ``asyncio`` server speaking the PR-7
  length-prefixed socket frames.  Each client connection contributes small
  update batches; a :class:`BatchCoalescer` regroups them into router-sized
  batches, admission control rejects malformed traffic at the door, and
  backpressure derived from the transport watermarks
  (:meth:`ShardTransport.ingest_watermark
  <repro.distributed.transport.ShardTransport.ingest_watermark>`) pauses
  socket reads — filling TCP windows — instead of buffering unboundedly.
* :class:`GatewayClient` — the blocking client: binary update frames in,
  epoch-tagged snapshot reads (stats / top-K / point lookups) back.
* :class:`AutoRebalancer` — the hands-off placement policy: trigger/settle
  hysteresis around :meth:`imbalance`, cool-down after migrations, and
  nnz- or traffic-weighted slab placement, replacing the polling loop that
  previously lived in ``cli.py``.
* :class:`AutoRejoiner` — the hands-off availability policy: detects
  replica slots retired by failovers or node kills, re-dials the restarted
  agents with exponential back-off, and drives the slab resync until
  every shard holds its full mirror set again.

All matrix access happens on the gateway's event-loop thread (the rebalancer
and rejoiner threads dispatch their policy steps onto the loop), so snapshot
reads are trivially consistent with the epoch they report and no lock ever
guards the hierarchy.
"""

from .coalesce import BatchCoalescer, CoalescedBatch
from .rebalancer import AutoRebalancer
from .rejoin import AutoRejoiner
from .gateway import GatewayError, IngestGateway
from .client import GatewayClient

__all__ = [
    "AutoRebalancer",
    "AutoRejoiner",
    "BatchCoalescer",
    "CoalescedBatch",
    "GatewayClient",
    "GatewayError",
    "IngestGateway",
]
