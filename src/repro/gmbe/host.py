"""Host (sequential) execution of the GMBE algorithm.

Runs the exact GMBE enumeration — per-vertex root tasks (Alg. 3/4
construction), node-reuse stack iteration (Alg. 2), local-neighborhood-
size pruning (§4.2) — on one CPU thread with no GPU model attached.
This is the correctness anchor: the simulated-GPU kernel must produce
identical bicliques, and the CPU baselines must agree with both.
"""

from __future__ import annotations

import numpy as np

from ..core.bicliques import (
    BicliqueCounter,
    BicliqueSink,
    Counters,
    EnumerationResult,
)
from ..core.localcount import LocalCounter
from ..core.runner import relabeling_sink
from ..core.tasks import SubtreeTask, build_root_tasks, root_chunks
from ..graph.bipartite import BipartiteGraph
from ..graph.preprocess import prepare
from .config import DEFAULT_CONFIG, GMBEConfig
from .node_buffer import NodeBuffer

__all__ = ["gmbe_host", "run_task_with_node_buffer"]


def run_task_with_node_buffer(
    graph: BipartiteGraph,
    counter: LocalCounter,
    task: SubtreeTask,
    sink: BicliqueSink,
    counters: Counters,
    *,
    prune: bool = True,
) -> None:
    """Enumerate ``task``'s subtree with a reused :class:`NodeBuffer`.

    The task's own root biclique is *not* reported here (callers decide,
    since split tasks report at dequeue time).
    """
    buf = NodeBuffer(
        graph,
        counter,
        task.left,
        task.right,
        task.cands,
        task.counts,
        prune=prune,
        counters=counters,
        universe=task.universe,
    )
    while True:
        idx = buf.next_candidate()
        if idx is None:
            if buf.depth == 0:
                return
            buf.pop()
            continue
        outcome = buf.push(idx)
        if outcome.maximal:
            sink(buf.current_left(), buf.current_right())
        else:
            # Non-maximal nodes are never descended into (Alg. 2 only
            # pushes maximal children); undo immediately.
            buf.pop()


def gmbe_host(
    graph: BipartiteGraph,
    sink: BicliqueSink | None = None,
    *,
    config: GMBEConfig = DEFAULT_CONFIG,
) -> EnumerationResult:
    """Sequentially enumerate all maximal bicliques with GMBE semantics."""
    prepared = prepare(graph, order=config.order)
    g = prepared.graph
    counting = BicliqueCounter()
    if sink is None:
        inner = None
    else:
        inner = relabeling_sink(prepared, sink)

    def emit(left: np.ndarray, right: np.ndarray) -> None:
        counting(left, right)
        if inner is not None:
            inner(left, right)

    counter = LocalCounter(g)
    counters = Counters()
    backend_tally = {"sorted": 0, "bitset": 0}
    # The w/o_REUSE ablation walks freshly allocated frames through the
    # sorted engine, so only node-reuse runs resolve a bitset backend.
    backend = config.set_backend if config.node_reuse else "sorted"
    for roots in root_chunks(g):
        chunk = build_root_tasks(g, roots, backend=backend)
        counters.merge(chunk.charges())
        for task in chunk.tasks:
            if task is None:
                continue
            backend_tally[task.backend] += 1
            counters.maximal += 1
            emit(task.left, task.right)
            if config.node_reuse:
                run_task_with_node_buffer(
                    g, counter, task, emit, counters, prune=config.prune
                )
            else:
                # GMBE-w/o_REUSE: identical traversal on freshly allocated
                # frames (the §3.1 layout); used by the memory ablation.
                from ..core.engine import EngineOptions, run_subtree

                run_subtree(
                    g, counter, task.left, task.right, task.cands,
                    task.counts, emit, counters,
                    EngineOptions("id", False, config.prune),
                )
    return EnumerationResult(
        n_maximal=counting.count,
        counters=counters,
        extras={"set_backend_tasks": backend_tally},
    )
