"""Descriptive statistics over a set of maximal bicliques.

The applications the paper motivates (fraud rings, biclusters,
recommendation cohorts) rarely stop at the raw biclique list — they ask
*how big, how overlapping, how much of the graph is explained*.  This
module computes those summaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.bicliques import Biclique
from ..graph.bipartite import BipartiteGraph
from ..verify import check_edge_cover

__all__ = ["BicliqueSetStats", "summarize", "participation_counts", "edge_coverage"]


@dataclass(frozen=True)
class BicliqueSetStats:
    """Summary of a biclique collection."""

    n_bicliques: int
    max_left: int
    max_right: int
    max_edges: int
    mean_left: float
    mean_right: float
    median_edges: float
    #: histogram {(|L|, |R|) -> count}
    shape_histogram: dict[tuple[int, int], int]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.n_bicliques} bicliques; sides up to "
            f"{self.max_left}x{self.max_right}, max {self.max_edges} edges"
        )


def summarize(bicliques: Iterable[Biclique]) -> BicliqueSetStats:
    """Compute :class:`BicliqueSetStats` over ``bicliques``."""
    bs = list(bicliques)
    if not bs:
        return BicliqueSetStats(0, 0, 0, 0, 0.0, 0.0, 0.0, {})
    lefts = np.array([len(b.left) for b in bs])
    rights = np.array([len(b.right) for b in bs])
    edges = lefts * rights
    hist = Counter((int(l), int(r)) for l, r in zip(lefts, rights))
    return BicliqueSetStats(
        n_bicliques=len(bs),
        max_left=int(lefts.max()),
        max_right=int(rights.max()),
        max_edges=int(edges.max()),
        mean_left=float(lefts.mean()),
        mean_right=float(rights.mean()),
        median_edges=float(np.median(edges)),
        shape_histogram=dict(hist),
    )


def participation_counts(
    bicliques: Sequence[Biclique], n_u: int, n_v: int
) -> tuple[np.ndarray, np.ndarray]:
    """How many bicliques each vertex belongs to.

    High-participation vertices are the hubs that drive the paper's
    load-imbalance pathology; in fraud settings they are the shared
    accounts linking rings.
    """
    u_counts = np.zeros(n_u, dtype=np.int64)
    v_counts = np.zeros(n_v, dtype=np.int64)
    for b in bicliques:
        u_counts[list(b.left)] += 1
        v_counts[list(b.right)] += 1
    return u_counts, v_counts


def edge_coverage(
    bicliques: Iterable[Biclique], graph: BipartiteGraph
) -> float:
    """Fraction of the graph's edges inside at least one biclique.

    For the set of *all* maximal bicliques this is 1.0 (every edge is a
    1×1 biclique extendable to a maximal one); for a selection it
    measures how much structure the selection explains.
    """
    if graph.n_edges == 0:
        return 1.0
    uncovered = len(check_edge_cover(graph, bicliques))
    return (graph.n_edges - uncovered) / graph.n_edges
