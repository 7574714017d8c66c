"""Incremental maintenance of the maximal biclique set under edge updates.

The paper's related work (§7) cites efficient maintenance for maximal
bicliques in bipartite graph streams (Ma et al., WWW J. 2022).  This
module implements a clean *locality* algorithm built on two facts, both
proved in the method docstrings' terms:

1. a maximal biclique containing neither endpoint of the updated edge
   is entirely unaffected — its edges don't change, and any new
   extension vertex would need adjacency to the whole biclique through
   the updated edge's endpoints, which it cannot gain;
2. every *new* maximal biclique (and every invalidated one) contains an
   endpoint of the updated edge — for insertions both endpoints, for
   deletions at least one.

So each update (a) drops the maintained bicliques containing either
endpoint and (b) re-enumerates the two *local* neighborhoods — the
induced subgraph ``({u} ∪ N2(u)) × N(u)`` contains every maximal
biclique through ``u``, and maximality there coincides with global
maximality for those bicliques.  Cost is proportional to the endpoint
neighborhoods, not the graph.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core import oombea
from ..core.bicliques import Biclique, BicliqueCollector
from ..graph.bipartite import BipartiteGraph
from .dynamic_graph import DynamicBipartiteGraph

__all__ = ["BicliqueMaintainer"]


class BicliqueMaintainer:
    """Maintains the full set of maximal bicliques across edge updates.

    Parameters
    ----------
    graph:
        Optional initial graph; its maximal bicliques are enumerated
        once at construction (via ooMBEA).

    Attributes
    ----------
    bicliques:
        The maintained set, always exactly the maximal bicliques of the
        current graph (both sides non-empty).
    """

    def __init__(self, graph: BipartiteGraph | None = None) -> None:
        if graph is not None:
            self.graph = DynamicBipartiteGraph.from_graph(graph)
            collector = BicliqueCollector()
            oombea(graph, collector)
            initial = collector.as_set()
        else:
            self.graph = DynamicBipartiteGraph()
            initial = set()
        self._bicliques: dict[Biclique, None] = {}
        self._by_u: dict[int, set[Biclique]] = {}
        self._by_v: dict[int, set[Biclique]] = {}
        for b in initial:
            self._index(b)
        #: update statistics: how much local work each update did
        self.stats = {"updates": 0, "dropped": 0, "added": 0}

    # ------------------------------------------------------------------
    @property
    def bicliques(self) -> set[Biclique]:
        return set(self._bicliques)

    def __len__(self) -> int:
        return len(self._bicliques)

    def __contains__(self, b: Biclique) -> bool:
        return b in self._bicliques

    # ------------------------------------------------------------------
    def _index(self, b: Biclique) -> None:
        if b in self._bicliques:
            return
        self._bicliques[b] = None
        for u in b.left:
            self._by_u.setdefault(u, set()).add(b)
        for v in b.right:
            self._by_v.setdefault(v, set()).add(b)

    def _unindex(self, b: Biclique) -> None:
        if b not in self._bicliques:
            return
        del self._bicliques[b]
        for u in b.left:
            self._by_u.get(u, set()).discard(b)
        for v in b.right:
            self._by_v.get(v, set()).discard(b)

    def _local_maximal(self, us, vs, side: int, vertex: int) -> set[Biclique]:
        """All maximal bicliques of the current graph inside ``us × vs``
        with ``vertex`` on ``side`` (0: left, 1: right)."""
        if not us or not vs:
            return set()
        sub, u_ids, v_ids = self.graph.induced_subgraph(us, vs)
        collector = BicliqueCollector()
        oombea(sub, collector)
        pos = int(np.searchsorted((u_ids, v_ids)[side], vertex))
        return {
            Biclique.make(u_ids[list(b.left)], v_ids[list(b.right)])
            for b in collector.bicliques
            if pos in b[side]
        }

    def _update_around(self, u: int, v: int) -> None:
        """Drop-and-reenumerate the locality of the updated edge."""
        stale = set(self._by_u.get(u, ())) | set(self._by_v.get(v, ()))
        for b in stale:
            self._unindex(b)
        g = self.graph
        fresh = self._local_maximal(
            g.two_hop_u(u) | {u}, g.neighbors_u(u), 0, u
        ) | self._local_maximal(g.neighbors_v(v), g.two_hop_v(v) | {v}, 1, v)
        for b in fresh:
            self._index(b)
        self.stats["updates"] += 1
        self.stats["dropped"] += len(stale)
        self.stats["added"] += len(fresh)

    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)`` and repair the maintained set.

        Returns False (and changes nothing) if the edge already existed.
        """
        if not self.graph.insert_edge(u, v):
            return False
        self._update_around(u, v)
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)`` and repair the maintained set."""
        if not self.graph.delete_edge(u, v):
            return False
        self._update_around(u, v)
        return True

    def apply(self, updates: Iterable[tuple[str, int, int]]) -> None:
        """Apply a stream of ``("+"|"-", u, v)`` updates in order."""
        for op, u, v in updates:
            if op == "+":
                self.insert_edge(u, v)
            elif op == "-":
                self.delete_edge(u, v)
            else:
                raise ValueError(f"unknown op {op!r}")

    # ------------------------------------------------------------------
    def recompute(self) -> set[Biclique]:
        """From-scratch enumeration of the current graph (for audits)."""
        collector = BicliqueCollector()
        oombea(self.graph.snapshot(), collector)
        return collector.as_set()
