"""Mutable bipartite graph for streaming updates.

The CSR :class:`repro.graph.BipartiteGraph` is immutable by design (the
enumeration kernels rely on frozen sorted arrays).  Streams need cheap
edge insertion/deletion, so the maintainer works on this adjacency-set
representation and *snapshots* induced subgraphs into CSR form only for
the local re-enumerations.

One lock guards every mutation and read of the adjacency sets (the
service broker snapshots on its loop thread while callers write), and
the whole-graph snapshot is built once per graph version.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from ..graph.bipartite import BipartiteGraph

__all__ = ["DynamicBipartiteGraph"]


class DynamicBipartiteGraph:
    """Adjacency-set bipartite graph supporting edge updates."""

    def __init__(self, n_u: int = 0, n_v: int = 0) -> None:
        self._adj_u: list[set[int]] = [set() for _ in range(n_u)]
        self._adj_v: list[set[int]] = [set() for _ in range(n_v)]
        self._listeners: list[Callable[[str, int, int], None]] = []
        #: guards the adjacency sets, the version and the snapshot cache
        self._lock = threading.Lock()
        #: bumped by every change to the edge set or the vertex ranges
        self._version = 0
        #: ``(version, graph)`` of the last whole-graph snapshot
        self._snapshot: tuple[int, BipartiteGraph] | None = None

    # ------------------------------------------------------------------
    # Update listeners (cache invalidation, audit logs, ...)
    # ------------------------------------------------------------------
    def add_update_listener(self, fn: Callable[[str, int, int], None]) -> None:
        """Call ``fn(op, u, v)`` after every successful edge mutation.

        ``op`` is ``"insert"`` or ``"delete"``.  No-op mutations (inserting
        an existing edge, deleting an absent one) do not fire.  The
        service-layer result cache subscribes here so stale entries for a
        mutated graph are dropped eagerly.
        """
        self._listeners.append(fn)

    def remove_update_listener(self, fn: Callable[[str, int, int], None]) -> None:
        """Detach a listener previously registered; missing fn is a no-op."""
        try:
            self._listeners.remove(fn)
        except ValueError:
            pass

    def _notify(self, op: str, u: int, v: int) -> None:
        for fn in tuple(self._listeners):
            fn(op, u, v)

    @staticmethod
    def from_graph(graph: BipartiteGraph) -> "DynamicBipartiteGraph":
        g = DynamicBipartiteGraph()
        g._adj_u = _row_sets(graph.u_indptr, graph.u_indices)
        g._adj_v = _row_sets(graph.v_indptr, graph.v_indices)
        return g

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Changes whenever the edge set or a vertex range does."""
        return self._version

    @property
    def n_u(self) -> int:
        return len(self._adj_u)

    @property
    def n_v(self) -> int:
        return len(self._adj_v)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self._adj_u)

    def neighbors_u(self, u: int) -> set[int]:
        return self._adj_u[u]

    def neighbors_v(self, v: int) -> set[int]:
        return self._adj_v[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n_u and v in self._adj_u[u]

    # ------------------------------------------------------------------
    def ensure_vertices(self, u: int, v: int) -> None:
        """Grow the vertex ranges to include ``u`` and ``v``."""
        with self._lock:
            self._grow(u, v)

    def _grow(self, u: int, v: int) -> None:
        if u >= len(self._adj_u) or v >= len(self._adj_v):
            self._adj_u.extend(set() for _ in range(u + 1 - len(self._adj_u)))
            self._adj_v.extend(set() for _ in range(v + 1 - len(self._adj_v)))
            self._version += 1

    def insert_edge(self, u: int, v: int) -> bool:
        """Add edge; returns False if it already existed."""
        if u < 0 or v < 0:
            raise ValueError("vertex ids must be non-negative")
        with self._lock:
            self._grow(u, v)
            if v in self._adj_u[u]:
                return False
            self._adj_u[u].add(v)
            self._adj_v[v].add(u)
            self._version += 1
        self._notify("insert", u, v)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Remove edge; returns False if it was absent."""
        with self._lock:
            if not self.has_edge(u, v):
                return False
            self._adj_u[u].discard(v)
            self._adj_v[v].discard(u)
            self._version += 1
        self._notify("delete", u, v)
        return True

    # ------------------------------------------------------------------
    def two_hop_u(self, u: int) -> set[int]:
        """U-vertices sharing a V-neighbor with ``u`` (excluding ``u``)."""
        out: set[int] = set()
        for v in self._adj_u[u]:
            out |= self._adj_v[v]
        out.discard(u)
        return out

    def two_hop_v(self, v: int) -> set[int]:
        out: set[int] = set()
        for u in self._adj_v[v]:
            out |= self._adj_u[u]
        out.discard(v)
        return out

    def snapshot(self) -> BipartiteGraph:
        """Freeze the whole graph into CSR form, once per version.

        Writes that returned before this call are in the result.  The
        version is read with the adjacency, so a write landing during
        the CSR build never gets this older graph cached as its own.
        """
        with self._lock:
            version, cached = self._version, self._snapshot
            if cached is not None and cached[0] == version:
                return cached[1]
            n_u, n_v = len(self._adj_u), len(self._adj_v)
            edges = _edges(self._adj_u)
        graph = BipartiteGraph.from_edges(n_u, n_v, edges)
        self._snapshot = (version, graph)
        return graph

    def induced_subgraph(
        self, us: Iterable[int], vs: Iterable[int]
    ) -> tuple[BipartiteGraph, np.ndarray, np.ndarray]:
        """CSR snapshot of the subgraph induced by ``us`` × ``vs``.

        Returns ``(graph, u_ids, v_ids)`` where ``u_ids[i]`` is the
        original id of the subgraph's U-vertex ``i`` (ditto ``v_ids``).
        """
        u_ids = np.array(sorted(set(us)), dtype=np.int64)
        v_ids = np.array(sorted(set(vs)), dtype=np.int64)
        with self._lock:
            edges = _edges([self._adj_u[u] for u in u_ids.tolist()])
        cols = np.searchsorted(v_ids, edges[:, 1])
        inside = cols < len(v_ids)
        inside[inside] = v_ids[cols[inside]] == edges[inside, 1]
        edges[:, 1] = cols
        sub = BipartiteGraph.from_edges(len(u_ids), len(v_ids), edges[inside])
        return sub, u_ids, v_ids


def _row_sets(indptr: np.ndarray, indices: np.ndarray) -> list[set[int]]:
    """Per-row neighbor sets of a CSR adjacency."""
    ids, bounds = indices.tolist(), indptr.tolist()
    return [set(ids[a:b]) for a, b in zip(bounds, bounds[1:])]


def _edges(rows: list[set[int]]) -> np.ndarray:
    """``(row index, member)`` pairs of ``rows`` as an (m, 2) array."""
    degrees = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    edges = np.empty((int(degrees.sum()), 2), dtype=np.int64)
    edges[:, 0] = np.repeat(np.arange(len(rows)), degrees)
    edges[:, 1] = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                              count=len(edges))
    return edges
