"""Common run wrapper shared by the serial CPU baselines.

Each baseline = preprocessing choice + :class:`EngineOptions`.  The
wrapper prepares the graph, runs the engine, and relabels reported
bicliques back to the caller's original vertex ids so results
are directly comparable across algorithms and against the oracle.
"""

from __future__ import annotations

import numpy as np

from ..graph.bipartite import BipartiteGraph
from ..graph.preprocess import prepare
from .bicliques import BicliqueSink, Counters, EnumerationResult
from .engine import EngineOptions, run_engine

__all__ = ["run_baseline", "relabeling_sink"]


def relabeling_sink(prepared, sink: BicliqueSink) -> BicliqueSink:
    """Wrap ``sink`` so it receives bicliques in input-graph labels."""

    def _wrapped(left: np.ndarray, right: np.ndarray) -> None:
        l_in, r_in = prepared.biclique_to_input_labels(left, right)
        sink(l_in, r_in)

    return _wrapped


def run_baseline(
    graph: BipartiteGraph,
    sink: BicliqueSink | None,
    options: EngineOptions,
) -> EnumerationResult:
    """Prepare ``graph`` (ascending-degree V order), run the engine, and
    package the result."""
    from .bicliques import BicliqueCounter

    prepared = prepare(graph)
    counting = BicliqueCounter()
    if sink is None:
        effective: BicliqueSink = counting
    else:
        inner = relabeling_sink(prepared, sink)

        def _tee(left: np.ndarray, right: np.ndarray) -> None:
            counting(left, right)
            inner(left, right)

        effective = _tee
    counters = Counters()
    run_engine(prepared.graph, effective, options, counters)
    return EnumerationResult(n_maximal=counting.count, counters=counters)
