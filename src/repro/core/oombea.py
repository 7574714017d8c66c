"""ooMBEA — ordering-optimized MBE (Chen et al., VLDB 2022), by effect.

ooMBEA combines a global ordering of V with batch-pivot pruning derived
from 2-hop neighborhoods — the strongest serial baseline in the paper's
Fig. 6.  We reproduce it as: degree-ascending preparation, batch
absorption, and the sibling pruning rule that GMBE's Theorem 4.1
generalizes (a candidate whose local neighborhood size is unchanged by a
traversed sibling's branch can only generate non-maximal nodes).  The
paper notes (§3.2) that this family of pruning traverses candidates'
neighborhoods heavily — cheap on CPUs, divergence-prone on GPUs — which
is exactly the trade-off the GMBE comparison explores.
"""

from __future__ import annotations

from ..graph.bipartite import BipartiteGraph
from .bicliques import BicliqueSink, EnumerationResult
from .engine import EngineOptions
from .runner import run_baseline

__all__ = ["oombea"]

_OPTIONS = EngineOptions(order="count_asc", absorb_equal_left=True, nls_prune=True)


def oombea(
    graph: BipartiteGraph,
    sink: BicliqueSink | None = None,
) -> EnumerationResult:
    """Enumerate all maximal bicliques with the ooMBEA baseline."""
    return run_baseline(graph, sink, _OPTIONS)
