"""Ablation: stack iteration with node reuse vs frame-allocating DFS.

Fig. 7 already shows the *memory* side of §4.1.  This ablation shows the
compute side is free: the node-reuse buffer (depth-field updates, undo
logs) performs the same set operations as the frame-allocating engine,
so its scalar work per enumerated biclique is comparable — node reuse
buys the 49×–4,819× memory saving without a compute penalty.

Also reports the modeled footprints (live Python-side measurement of
`NodeBuffer.memory_words()` against the analytic bound).
"""

from conftest import SCALE, once

from repro.core import Counters, LocalCounter, build_root_task
from repro.core.engine import EngineOptions, run_subtree
from repro.datasets import load
from repro.gmbe.host import run_task_with_node_buffer
from repro.gmbe.node_buffer import NodeBuffer
from repro.graph.preprocess import prepare
from repro.graph.stats import compute_stats


def test_ablation_node_reuse_compute_cost(benchmark):
    graph = load("YG", scale=SCALE)
    prepared = prepare(graph, order="degree").graph

    def run():
        counter = LocalCounter(prepared)
        reuse = Counters()
        frames = Counters()
        peak_words = 0
        n_tasks = 0
        for v_s in range(prepared.n_v):
            task = build_root_task(prepared, v_s)
            if task is None:
                continue
            n_tasks += 1
            buf = NodeBuffer(
                prepared, counter, task.left, task.right, task.cands,
                task.counts, counters=reuse,
            )
            peak_words = max(peak_words, buf.memory_words())
            run_task_with_node_buffer(
                prepared, counter, task, lambda l, r: None, reuse
            )
            run_subtree(
                prepared, counter, task.left, task.right, task.cands,
                task.counts, lambda l, r: None, frames,
                EngineOptions("id", False, True),
            )
        return reuse, frames, peak_words, n_tasks

    reuse, frames, peak_words, n_tasks = once(benchmark, run)

    stats = compute_stats(prepared)
    bound = stats.node_buffer_words()
    print(
        f"\nAblation: node reuse vs frame DFS on YG ({n_tasks} tasks)\n"
        f"  node-reuse scalar work:  {reuse.set_op_work:,}\n"
        f"  frame-DFS  scalar work:  {frames.set_op_work:,}\n"
        f"  largest node_buf:        {peak_words:,} words "
        f"(analytic bound 3*dV+2*d2V = {bound:,})"
    )

    assert reuse.maximal == frames.maximal
    # Node reuse must not inflate compute: same order of magnitude, and
    # in practice within a small factor of the frame-allocating DFS.
    assert reuse.set_op_work <= 1.5 * frames.set_op_work
    # The live buffers respect the paper's §4.1 bound.
    assert peak_words <= bound
