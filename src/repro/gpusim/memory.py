"""GPU memory-demand model (paper §3.1 vs §4.1; Fig. 7).

Enumeration in the simulator is functionally identical with or without
node reuse — what differs is how much device memory the real kernel
would have to pre-allocate.  This module computes both layouts from the
graph statistics so the Fig. 7 benchmark can compare them against each
device's capacity:

- **naive (GMBE-w/o_REUSE)**: each concurrent subtree procedure keeps
  every active node live, ``Δ(V) · (Δ(V) + Δ2(V))`` words (§3.1), one
  procedure per SM (that is the most the naive layout can afford);
- **node reuse (GMBE)**: one ``node_buf`` of ``3·Δ(V) + 2·Δ2(V)`` words
  per resident warp (§4.1).

Both include the CSR graph itself, which the host transfers once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.stats import GraphStats
from .device import DeviceSpec

__all__ = ["MemoryModel", "MemoryDemand"]

_WORD = 4  # sizeof(int) on the device, as in the paper's arithmetic


@dataclass(frozen=True)
class MemoryDemand:
    """Bytes a kernel launch would need on a device."""

    graph_bytes: int
    per_procedure_bytes: int
    n_procedures: int

    @property
    def total_bytes(self) -> int:
        return self.graph_bytes + self.per_procedure_bytes * self.n_procedures

    def fits(self, device: DeviceSpec) -> bool:
        return self.total_bytes <= device.global_mem_bytes


class MemoryModel:
    """Computes Fig. 7's two memory layouts for a dataset."""

    def __init__(self, stats: GraphStats) -> None:
        self._stats = stats

    def graph_bytes(self) -> int:
        """CSR in both directions: indptr + indices per side."""
        s = self._stats
        return _WORD * (2 * (s.n_u + 1) + 2 * (s.n_v + 1) + 4 * s.n_edges)

    def node_buffer_bytes(self) -> int:
        """One reused ``node_buf``: ``(3·Δ(V) + 2·Δ2(V))`` words."""
        return _WORD * self._stats.node_buffer_words()

    def naive_subtree_bytes(self) -> int:
        """One pre-allocated subtree: ``Δ(V)·(Δ(V)+Δ2(V))`` words."""
        return _WORD * self._stats.naive_tree_words()

    def demand_with_reuse(
        self, device: DeviceSpec, *, per: str = "sm"
    ) -> MemoryDemand:
        """GMBE's demand: one reused ``node_buf`` per concurrent procedure.

        ``per="sm"`` allocates one buffer per SM — the accounting behind
        the paper's Fig. 7 (its 49×–4,819× savings and the §3.1 397 GB
        figure both assume 108 procedures on the A100).  ``per="warp"``
        allocates one per resident warp (WarpPerSM × SMs), the amount the
        §4.3 persistent-thread kernel actually needs; it is ~WarpPerSM×
        larger and still fits comfortably (§4.1's '10k procedures').
        """
        if per == "sm":
            n = device.n_sms
        elif per == "warp":
            n = device.n_warps
        else:
            raise ValueError(f"unknown per={per!r}")
        return MemoryDemand(
            graph_bytes=self.graph_bytes(),
            per_procedure_bytes=self.node_buffer_bytes(),
            n_procedures=n,
        )

    def demand_without_reuse(self, device: DeviceSpec) -> MemoryDemand:
        """Naive demand: one full subtree allocation per SM (§3.1)."""
        return MemoryDemand(
            graph_bytes=self.graph_bytes(),
            per_procedure_bytes=self.naive_subtree_bytes(),
            n_procedures=device.n_sms,
        )

    def max_concurrent_procedures(self, device: DeviceSpec) -> int:
        """How many node-reuse procedures fit in the device's memory —
        the 'over 10k procedures on BookCrossing' claim of §4.1."""
        free = device.global_mem_bytes - self.graph_bytes()
        per = self.node_buffer_bytes()
        return max(0, free // per) if per > 0 else 0
