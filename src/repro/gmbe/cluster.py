"""Distributed multi-machine GMBE — the paper's stated future work (§5).

The paper: *"Theoretically, GMBE can also be extended to a distributed
computing environment, where multiple machines (each with one or more
GPUs) are connected by the network ... we leave the exploration of GMBE
on distributed multi-machine clusters as our future work."*

This module implements that extension on the simulator.  The design
follows the paper's single-machine multi-GPU recipe: the ``processing_v``
counter is shared *cluster-wide* (a network service instead of
``atomicInc_system``), task queues stay per-GPU, and no intermediate
data ever crosses machines — each root task is computed entirely on the
GPU that claimed it.  The only new cost is the round-trip to the counter
service: GPUs co-located with the counter pay the PCIe/NVLink price,
remote GPUs pay a network RTT per claim.

The interesting trade-off this exposes (see
``benchmarks/bench_ablation_cluster.py``): with cheap per-vertex tasks,
a high RTT serializes root claims and erases scaling — the known
remedy, also modeled here, is *batched claiming* (each pull reserves a
contiguous chunk of vertices, amortizing the RTT).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.bicliques import BicliqueSink, EnumerationResult
from ..graph.bipartite import BipartiteGraph
from ..gpusim.device import V100, DeviceSpec
from .config import DEFAULT_CONFIG, GMBEConfig
from .kernel import gmbe_gpu

__all__ = ["ClusterSpec", "gmbe_cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous GPU cluster.

    Attributes
    ----------
    n_nodes:
        Machines in the cluster; the counter service lives on node 0.
    gpus_per_node:
        Identical GPUs per machine.
    device:
        The GPU model (paper's multi-GPU machine uses V100s).
    local_pull_cycles:
        Cycles for a counter claim from node 0's own GPUs (PCIe atomic).
    remote_pull_cycles:
        Cycles for a claim crossing the network (RTT at GPU clock; the
        default ~1.4 us corresponds to a fast RDMA fabric).
    claim_batch:
        Vertices reserved per counter claim.  1 = the paper's plain
        ``atomicInc``; larger batches amortize the RTT.
    """

    n_nodes: int = 2
    gpus_per_node: int = 1
    device: DeviceSpec = V100
    local_pull_cycles: float = 200.0
    remote_pull_cycles: float = 2000.0
    claim_batch: int = 1

    def __post_init__(self) -> None:
        # Per-field validation naming the offender and its value (same
        # style as repro.api.validate_size_filters) so a bad spec fails
        # at construction with a message that says what to fix.
        for name in ("n_nodes", "gpus_per_node", "claim_batch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}"
                )
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("local_pull_cycles", "remote_pull_cycles"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                raise ValueError(
                    f"{name} must be a non-negative number, got {value!r}"
                )
            if value < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {value}"
                )
        if not isinstance(self.device, DeviceSpec):
            raise ValueError(
                f"device must be a DeviceSpec, got "
                f"{type(self.device).__name__} ({self.device!r})"
            )

    def __repr__(self) -> str:
        # The default dataclass repr hides where the claim cost lands;
        # the per-GPU surcharge breakdown is what shard-placement
        # debugging actually needs (which GPUs pay the network RTT).
        breakdown = ", ".join(
            f"gpu{i}@node{i // self.gpus_per_node}={cost:g}"
            for i, cost in enumerate(self.surcharges())
        )
        return (
            f"ClusterSpec(n_nodes={self.n_nodes}, "
            f"gpus_per_node={self.gpus_per_node}, "
            f"device={self.device.name!r}, claim_batch={self.claim_batch}, "
            f"pull_surcharges=[{breakdown}])"
        )

    @property
    def n_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node

    def surcharges(self) -> list[float]:
        """Per-GPU counter-claim surcharge, amortized over the batch."""
        out: list[float] = []
        for node in range(self.n_nodes):
            cost = self.local_pull_cycles if node == 0 else self.remote_pull_cycles
            out.extend([cost / self.claim_batch] * self.gpus_per_node)
        return out


def gmbe_cluster(
    graph: BipartiteGraph,
    sink: BicliqueSink | None = None,
    *,
    cluster: ClusterSpec = ClusterSpec(),
    config: GMBEConfig = DEFAULT_CONFIG,
) -> EnumerationResult:
    """Enumerate all maximal bicliques with GMBE on a simulated cluster.

    Results are identical to any other execution mode; ``sim_time`` and
    per-GPU times account for the cluster-wide counter's claim costs.
    The returned ``extras`` additionally carries the cluster spec.
    """
    result = gmbe_gpu(
        graph,
        sink,
        config=config,
        device=cluster.device,
        n_gpus=cluster.n_gpus,
        root_pull_surcharges=cluster.surcharges(),
    )
    result.extras["cluster"] = cluster
    per_gpu = result.extras["per_gpu_seconds"]
    result.extras["per_node_seconds"] = [
        max(per_gpu[n * cluster.gpus_per_node : (n + 1) * cluster.gpus_per_node])
        for n in range(cluster.n_nodes)
    ]
    return result
