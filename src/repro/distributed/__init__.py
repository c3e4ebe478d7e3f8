"""Distributed-scaling substrate: the SuperCloud model, the persistent shard
worker pool and its slot interface (in-process slots, or the one process
wire: the length-prefixed frames of :mod:`repro.distributed.codec`, to
workers forked over a ``socketpair`` or hosted by
:class:`~repro.distributed.node.NodeAgent` endpoints), the sharded
hierarchical matrix with replica failover, and the Figure 2 table assembly."""

from .aggregate import DEFAULT_SERVER_COUNTS, Figure2Row, build_figure2_table, format_table
from .codec import BatchCodec, ValueCodec
from .node import (
    NodeAgent,
    RemoteWorkerHandle,
    format_address,
    parse_address,
    restart_local_agent,
    spawn_local_agents,
)
from .partition import (
    PARTITION_NAMES,
    PartitionMap,
    partition_keys,
    partition_keyspace,
)
from .pool import ShardWorkerPool, WorkerCrash, WorkerDied, WorkerReport
from .sharded import (
    RebalanceReport,
    ShardRouter,
    ShardedHierarchicalMatrix,
    ShardedIncrementalReductions,
)
from .supercloud import ClusterConfig, ScalingPoint, SuperCloudModel
from .transport import InprocTransport, ShardTransport, SocketTransport

__all__ = [
    "ClusterConfig",
    "ScalingPoint",
    "SuperCloudModel",
    "WorkerReport",
    "WorkerCrash",
    "WorkerDied",
    "ShardWorkerPool",
    "ShardRouter",
    "ShardedHierarchicalMatrix",
    "ShardedIncrementalReductions",
    "RebalanceReport",
    "PartitionMap",
    "partition_keys",
    "partition_keyspace",
    "PARTITION_NAMES",
    "ShardTransport",
    "InprocTransport",
    "SocketTransport",
    "BatchCodec",
    "ValueCodec",
    "NodeAgent",
    "RemoteWorkerHandle",
    "spawn_local_agents",
    "restart_local_agent",
    "parse_address",
    "format_address",
    "Figure2Row",
    "build_figure2_table",
    "format_table",
    "DEFAULT_SERVER_COUNTS",
]
