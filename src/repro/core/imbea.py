"""iMBEA — MBEA with vertex ordering and batch absorption (Zhang et al.).

Improvements over plain MBEA, per the original paper:

1. V is sorted by ascending degree before enumeration, and inside each
   node candidates are traversed smallest-local-neighborhood first, which
   keeps early subtrees shallow;
2. when a branch does not shrink ``L`` (``L' == L``), the branch subsumes
   its parent: the traversed vertex is absorbed into ``R`` in place
   instead of forking a sibling subtree.
"""

from __future__ import annotations

from ..graph.bipartite import BipartiteGraph
from .bicliques import BicliqueSink, EnumerationResult
from .engine import EngineOptions
from .runner import run_baseline

__all__ = ["imbea"]

_OPTIONS = EngineOptions(order="count_asc", absorb_equal_left=True, nls_prune=False)


def imbea(
    graph: BipartiteGraph,
    sink: BicliqueSink | None = None,
) -> EnumerationResult:
    """Enumerate all maximal bicliques with the iMBEA baseline."""
    return run_baseline(graph, sink, _OPTIONS)
