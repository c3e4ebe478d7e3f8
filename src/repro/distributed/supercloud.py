"""A model of the MIT SuperCloud deployment used in the paper's scaling study.

The paper's experiment is embarrassingly parallel: each of up to 31,000
processes on up to 1,100 server nodes owns an *independent* hierarchical
hypersparse matrix and streams its own power-law graph into it; the aggregate
update rate is the sum of per-process rates, degraded only by launch overhead
and stragglers.  We cannot rent 1,100 nodes offline, so — per the substitution
policy in DESIGN.md — the cluster is modelled: per-process rates are *measured*
on the local machine, and :class:`SuperCloudModel` combines them with a
configurable launch/straggler overhead model to produce the rate-versus-servers
curve of Figure 2.  The model parameters default to values consistent with the
MIT SuperCloud papers (32 usable cores per Xeon node, triples-mode job launch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = ["ClusterConfig", "ScalingPoint", "SuperCloudModel"]


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the modelled cluster.

    Attributes
    ----------
    max_nodes:
        Number of server nodes available (1,100 in the paper).
    processes_per_node:
        Hierarchical-matrix instances launched per node (the paper reaches
        31,000 instances on 1,100 nodes, i.e. ~28 per node; MIT SuperCloud
        nodes expose 32 usable slots).
    launch_overhead_seconds:
        Fixed per-job launch cost amortised over the measurement window.
    per_node_launch_seconds:
        Additional launch cost that grows with the node count (scheduler and
        interconnect contention).
    straggler_fraction:
        Fraction of processes that run at ``straggler_slowdown`` of full speed
        (models the slow tail observed on shared clusters).
    straggler_slowdown:
        Relative speed of a straggler process (0 < value <= 1).
    measurement_window_seconds:
        Length of the sustained-measurement window the rates are averaged over.
    """

    max_nodes: int = 1100
    processes_per_node: int = 28
    launch_overhead_seconds: float = 5.0
    per_node_launch_seconds: float = 0.02
    straggler_fraction: float = 0.03
    straggler_slowdown: float = 0.5
    measurement_window_seconds: float = 100.0

    def instances_for(self, nodes: int) -> int:
        """Number of hierarchical-matrix instances running on ``nodes`` nodes."""
        return int(nodes) * self.processes_per_node

    @classmethod
    def paper_configuration(cls) -> "ClusterConfig":
        """The configuration matching the paper's headline point (31,000 instances / 1,100 nodes)."""
        return cls(max_nodes=1100, processes_per_node=28)


@dataclass
class ScalingPoint:
    """One point of the rate-versus-servers curve.

    Attributes
    ----------
    nodes:
        Number of server nodes.
    instances:
        Total hierarchical-matrix instances.
    per_instance_rate:
        Updates per second of a single instance (measured locally).
    aggregate_rate:
        Modelled sustained aggregate updates per second.
    efficiency:
        ``aggregate_rate / (instances * per_instance_rate)``.
    """

    nodes: int
    instances: int
    per_instance_rate: float
    aggregate_rate: float
    efficiency: float

    def as_dict(self) -> dict:
        """Flat dict for tabular reports."""
        return {
            "nodes": self.nodes,
            "instances": self.instances,
            "per_instance_rate": round(self.per_instance_rate, 1),
            "aggregate_rate": self.aggregate_rate,
            "efficiency": round(self.efficiency, 4),
        }


class SuperCloudModel:
    """Weak-scaling model of embarrassingly parallel hierarchical ingest.

    Parameters
    ----------
    config:
        Cluster description (defaults to the paper's configuration).

    Examples
    --------
    >>> model = SuperCloudModel()
    >>> point = model.aggregate_rate(per_instance_rate=1.2e6, nodes=1100)
    >>> point.instances, f"{point.aggregate_rate:.3g}", f"{point.efficiency:.2f}"
    (30800, '2.87e+10', '0.78')
    """

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config if config is not None else ClusterConfig.paper_configuration()

    def aggregate_rate(self, per_instance_rate: float, nodes: int) -> ScalingPoint:
        """Model the sustained aggregate rate on ``nodes`` server nodes.

        The per-instance rate is degraded by the straggler tail, and the
        sustained window is stretched by launch overhead; otherwise the
        instances are independent so rates add.
        """
        cfg = self.config
        nodes = int(nodes)
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        instances = cfg.instances_for(nodes)
        # Straggler-adjusted mean per-instance rate.
        mean_rate = per_instance_rate * (
            (1.0 - cfg.straggler_fraction)
            + cfg.straggler_fraction * cfg.straggler_slowdown
        )
        ideal = instances * mean_rate
        # Launch overhead stretches the measurement window.
        launch = cfg.launch_overhead_seconds + cfg.per_node_launch_seconds * nodes
        window = cfg.measurement_window_seconds
        sustained = ideal * window / (window + launch)
        efficiency = sustained / (instances * per_instance_rate) if instances else 0.0
        return ScalingPoint(
            nodes=nodes,
            instances=instances,
            per_instance_rate=per_instance_rate,
            aggregate_rate=sustained,
            efficiency=efficiency,
        )

    def scaling_series(
        self, per_instance_rate: float, node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1100)
    ) -> List[ScalingPoint]:
        """The full rate-versus-servers curve for Figure 2."""
        return [self.aggregate_rate(per_instance_rate, n) for n in node_counts]

    def nodes_needed_for(self, target_rate: float, per_instance_rate: float) -> int:
        """Smallest node count whose modelled aggregate rate meets ``target_rate``."""
        lo, hi = 1, self.config.max_nodes
        if self.aggregate_rate(per_instance_rate, hi).aggregate_rate < target_rate:
            raise ValueError(
                f"target rate {target_rate:.3g}/s is not reachable with "
                f"{hi} nodes at {per_instance_rate:.3g}/s per instance"
            )
        while lo < hi:
            mid = (lo + hi) // 2
            if self.aggregate_rate(per_instance_rate, mid).aggregate_rate >= target_rate:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def headline_projection(self, per_instance_rate: float) -> Dict[str, float]:
        """Projection of the paper's headline point from a measured per-instance rate."""
        point = self.aggregate_rate(per_instance_rate, self.config.max_nodes)
        return {
            "nodes": point.nodes,
            "instances": point.instances,
            "per_instance_rate": per_instance_rate,
            "aggregate_rate": point.aggregate_rate,
            "paper_rate": 75e9,
            "ratio_to_paper": point.aggregate_rate / 75e9,
        }
