"""MBEA — the basic recursive MBE baseline (Zhang et al., 2014).

The plain set-enumeration search of Alg. 1 without candidate ordering,
batch absorption, or pruning: every child node pays a full closure
(maximality) check and fully-connected candidates still fork their own
branches' worth of work.  This is the slowest baseline in the paper's
Fig. 6 and the yardstick everything else improves on.

One concession to the synthetic analogs: the graph still receives the
§5 preprocessing (degree-ascending V), because with the hub-block skew
of the large analogs a literally arbitrary input order makes base MBEA
intractable at any scale — the same reason every published MBEA
implementation processes vertices in a degree-aware order.  iMBEA's
differentiators on top of this (per-node candidate sorting by local
neighborhood size, batch absorption) remain intact, so the Fig. 6
refinement ladder is preserved and strict.
"""

from __future__ import annotations

from ..graph.bipartite import BipartiteGraph
from .bicliques import BicliqueSink, EnumerationResult
from .engine import EngineOptions
from .runner import run_baseline

__all__ = ["mbea"]

_OPTIONS = EngineOptions(order="id", absorb_equal_left=False, nls_prune=False)


def mbea(
    graph: BipartiteGraph,
    sink: BicliqueSink | None = None,
) -> EnumerationResult:
    """Enumerate all maximal bicliques with the MBEA baseline.

    Parameters
    ----------
    graph:
        Input bipartite graph.
    sink:
        Optional ``sink(L, R)`` callable receiving each maximal biclique
        (sorted numpy arrays).  Counting always happens regardless.
    """
    return run_baseline(graph, sink, _OPTIONS)
