"""Size-constrained maximal biclique enumeration.

The (p, q)-setting the paper cites for GNN aggregation (Yang et al.,
VLDB J. 2023): report only maximal bicliques with ``|L| ≥ p`` and
``|R| ≥ q``.  Filtering after a full enumeration is correct but wasteful
— on fraud-style workloads almost all maximal bicliques are tiny.  This
wrapper pushes both bounds into the search (see
:class:`repro.core.engine.EngineOptions`): subtrees whose ``L`` already
shrank below ``p``, or whose ``R ∪ C`` cannot reach ``q``, are cut.

The result is exactly ``{maximal bicliques B : |B.left| ≥ p, |B.right| ≥ q}``
— maximality remains *global* (w.r.t. the whole graph), matching the
filtered semantics.
"""

from __future__ import annotations

from ..graph.bipartite import BipartiteGraph
from .bicliques import BicliqueSink, EnumerationResult
from .engine import EngineOptions
from .runner import run_baseline

__all__ = ["constrained_mbe"]


def constrained_mbe(
    graph: BipartiteGraph,
    min_left: int,
    min_right: int,
    sink: BicliqueSink | None = None,
    *,
    core_reduce: bool = True,
) -> EnumerationResult:
    """Enumerate maximal bicliques with ``|L| ≥ min_left``, ``|R| ≥ min_right``.

    Parameters
    ----------
    core_reduce:
        First shrink the graph to its (min_right, min_left)-core (see
        :func:`repro.graph.cores.core_subgraph`): the constrained
        maximal bicliques of the core and of the full graph coincide, so
        this is a pure speedup on skewed inputs.

    Notes
    -----
    Bounds apply in the *caller's* orientation (left = U side of the
    input); the §5 side-selection swap is handled internally.
    """
    if min_left < 1 or min_right < 1:
        raise ValueError("size bounds must be at least 1")

    if core_reduce and (min_left > 1 or min_right > 1):
        from ..graph.cores import core_subgraph

        core, u_ids, v_ids = core_subgraph(graph, min_right, min_left)
        if core.n_edges == 0:
            return EnumerationResult(n_maximal=0)
        if sink is None:
            mapped_sink = None
        else:

            def mapped_sink(left, right):
                sink(u_ids[left], v_ids[right])

        return constrained_mbe(
            core,
            min_left,
            min_right,
            mapped_sink,
            core_reduce=False,
        )

    # The engine's L/R follow the *prepared* orientation; if preparation
    # swaps sides, the caller's (min_left, min_right) swap too.
    swapped = graph.n_u < graph.n_v
    eff_left, eff_right = (min_right, min_left) if swapped else (min_left, min_right)
    options = EngineOptions(
        order="count_asc",
        absorb_equal_left=True,
        nls_prune=True,
        min_left=eff_left,
        min_right=eff_right,
    )
    return run_baseline(graph, sink, options)
