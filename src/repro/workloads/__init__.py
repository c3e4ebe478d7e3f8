"""Workload generators and streaming utilities.

Provides the paper's power-law edge stream (:func:`paper_stream`), Graph500
Kronecker graphs, synthetic IP packet traffic with supernodes, and
:class:`IngestSession`, the in-process ingest stopwatch that ``repro-ingest``,
``repro-fig2`` and the examples use to measure updates/second identically
across systems (final deferred flush included).  The stage-budget benchmark
in ``bench/`` keeps its own clock and traces these calls from outside.
"""

from .powerlaw import (
    EdgeBatch,
    degree_distribution,
    kronecker_edges,
    paper_stream,
    powerlaw_edges,
)
from .stream import (
    IngestResult,
    IngestSession,
    batched,
    interleave,
    normalize_batch,
)
from .traffic import (
    PacketBatch,
    int_to_ipv4,
    int_to_ipv6,
    ipv4_to_int,
    ipv6_to_int,
    subnet_of,
    synthetic_packets,
)

__all__ = [
    "EdgeBatch",
    "powerlaw_edges",
    "kronecker_edges",
    "paper_stream",
    "degree_distribution",
    "PacketBatch",
    "synthetic_packets",
    "ipv4_to_int",
    "int_to_ipv4",
    "ipv6_to_int",
    "int_to_ipv6",
    "subnet_of",
    "IngestSession",
    "IngestResult",
    "batched",
    "interleave",
    "normalize_batch",
]
