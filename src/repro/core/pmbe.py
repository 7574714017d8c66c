"""PMBE — pivot-based MBE (Abidi et al., IJCAI 2020), reproduced by effect.

PMBE's contribution is pivot-based branch elimination: branches whose
expansion is dominated by an already-expanded pivot are skipped.  We
reproduce that effect on the shared engine with the provably-safe
dominated-sibling rule (a candidate whose local neighborhood is fully
inside a traversed sibling's neighborhood — detected by an unchanged
local-neighborhood size — can only yield non-maximal nodes), plus batch
absorption, on the degree-prepared graph with natural candidate order.
The full containment-DAG machinery of the original is out of scope; the
measured effect (fewer nodes than iMBEA, more than ooMBEA) matches the
paper's Fig. 6 ladder.  See DESIGN.md.
"""

from __future__ import annotations

from ..graph.bipartite import BipartiteGraph
from .bicliques import BicliqueSink, EnumerationResult
from .engine import EngineOptions
from .runner import run_baseline

__all__ = ["pmbe"]

_OPTIONS = EngineOptions(order="id", absorb_equal_left=True, nls_prune=True)


def pmbe(
    graph: BipartiteGraph,
    sink: BicliqueSink | None = None,
) -> EnumerationResult:
    """Enumerate all maximal bicliques with the PMBE baseline."""
    return run_baseline(graph, sink, _OPTIONS)
