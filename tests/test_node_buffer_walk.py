"""Differential test: NodeBuffer DFS vs the frame-allocating engine.

The node-reuse buffer must visit exactly the same enumeration nodes as
a plain DFS that allocates fresh (L, R, C) frames, for both pruning
settings — the strongest correctness evidence for the depth-field
push/pop bookkeeping of §4.1.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BicliqueCollector
from repro.core.bicliques import Counters
from repro.core.engine import EngineOptions, run_subtree
from repro.core.localcount import LocalCounter
from repro.core.tasks import build_root_task
from repro.gmbe.host import run_task_with_node_buffer
from repro.graph import BipartiteGraph, random_bipartite
from repro.graph.preprocess import prepare


def enumerate_both(graph, v_s, prune):
    lc = LocalCounter(graph)
    task = build_root_task(graph, v_s)
    if task is None:
        return None
    buf_out = BicliqueCollector()
    buf_counters = Counters()
    run_task_with_node_buffer(
        graph, lc, task, buf_out, buf_counters, prune=prune
    )
    eng_out = BicliqueCollector()
    eng_counters = Counters()
    run_subtree(
        graph, lc, task.left, task.right, task.cands, task.counts,
        eng_out, eng_counters,
        EngineOptions("id", False, prune),
    )
    return buf_out, buf_counters, eng_out, eng_counters


@pytest.mark.parametrize("prune", [True, False])
def test_per_task_equivalence_random(prune):
    for seed in range(6):
        g = prepare(random_bipartite(18, 13, 0.35, seed=seed)).graph
        for v_s in range(g.n_v):
            res = enumerate_both(g, v_s, prune)
            if res is None:
                continue
            buf_out, buf_c, eng_out, eng_c = res
            assert buf_out.as_set() == eng_out.as_set(), (seed, v_s)
            # Same nodes visited, same check outcomes.
            assert buf_c.nodes_generated == eng_c.nodes_generated, (seed, v_s)
            assert buf_c.maximal == eng_c.maximal
            assert buf_c.non_maximal == eng_c.non_maximal


@given(st.integers(0, 10_000), st.booleans())
@settings(max_examples=25, deadline=None)
def test_per_task_equivalence_hypothesis(seed, prune):
    rng = np.random.default_rng(seed)
    n_u, n_v = int(rng.integers(2, 14)), int(rng.integers(2, 11))
    mask = rng.random((n_u, n_v)) < 0.4
    g = BipartiteGraph.from_biadjacency(mask.astype(np.int8))
    g = prepare(g).graph
    for v_s in range(g.n_v):
        res = enumerate_both(g, v_s, prune)
        if res is None:
            continue
        buf_out, buf_c, eng_out, eng_c = res
        assert buf_out.as_set() == eng_out.as_set()
        assert buf_c.nodes_generated == eng_c.nodes_generated
