"""ParMBE — shared-memory parallel MBE (Das & Tirthapura, HiPC 2019).

The state-of-the-art *CPU* competitor in the paper (96 threads).  ParMBE
distributes one task per V-vertex (the Alg. 3 decomposition in the GMBE
paper) across a work-stealing pool; each task runs an independent subtree
search over the later-ordered 2-hop neighborhood of its vertex.

Execution modes:

- ``"serial"`` — run tasks sequentially (pure correctness path);
- ``"threads"`` — run tasks on a real thread pool (exercises the
  concurrent path; results must be identical);
- both record per-task costs, and the result's ``sim_time`` is the
  makespan of list-scheduling those costs onto ``n_workers`` simulated
  cores (see :mod:`repro.parallel.simpool`) in scalar work units —
  the reproduction's stand-in for the paper's 96-core wall clock.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..graph.bipartite import BipartiteGraph
from ..graph.preprocess import prepare
from ..parallel.simpool import schedule_tasks
from .bicliques import BicliqueCounter, BicliqueSink, Counters, EnumerationResult
from .engine import EngineOptions, run_subtree
from .localcount import LocalCounter
from .runner import relabeling_sink
from .tasks import build_root_task

__all__ = ["parmbe"]

_SUBTREE_OPTIONS = EngineOptions(order="id", absorb_equal_left=True, nls_prune=False)


def parmbe(
    graph: BipartiteGraph,
    sink: BicliqueSink | None = None,
    *,
    n_workers: int = 96,
    mode: str = "serial",
    n_threads: int = 4,
) -> EnumerationResult:
    """Enumerate all maximal bicliques with the ParMBE decomposition.

    Parameters
    ----------
    n_workers:
        Simulated core count for the reported makespan (paper: 96).
    mode:
        ``"serial"`` or ``"threads"`` (real concurrency; identical output).
    n_threads:
        Pool width when ``mode == "threads"`` (at least 1).
    """
    if mode not in ("serial", "threads"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "threads" and n_threads < 1:
        raise ValueError(f"n_threads must be at least 1, got {n_threads}")
    prepared = prepare(graph, order="degree")
    g = prepared.graph
    counting = BicliqueCounter()
    lock = threading.Lock()
    if sink is None:
        user_sink = None
    else:
        user_sink = relabeling_sink(prepared, sink)

    tls = threading.local()

    def get_counter() -> LocalCounter:
        counter = getattr(tls, "counter", None)
        if counter is None:
            counter = LocalCounter(g)
            tls.counter = counter
        return counter

    def run_task(v_s: int) -> tuple[Counters, int]:
        counter = get_counter()
        task_counters = Counters()
        task = build_root_task(g, v_s, task_counters)
        if task is None:
            return task_counters, task_counters.set_op_work
        emitted: list[tuple[np.ndarray, np.ndarray]] = [(task.left, task.right)]
        task_counters.maximal += 1
        run_subtree(
            g,
            counter,
            task.left,
            task.right,
            task.cands,
            task.counts,
            lambda left, right: emitted.append((left, right)),
            task_counters,
            _SUBTREE_OPTIONS,
        )
        with lock:
            for left, right in emitted:
                counting(left, right)
                if user_sink is not None:
                    user_sink(left, right)
        return task_counters, task_counters.set_op_work

    vertices = range(g.n_v)
    if mode == "serial":
        outcomes = [run_task(v) for v in vertices]
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = list(pool.map(run_task, vertices))

    counters = Counters()
    costs: list[int] = []
    nodes: list[int] = []
    for task_counters, cost in outcomes:
        counters.merge(task_counters)
        costs.append(cost)
        nodes.append(task_counters.nodes_generated)
    schedule = schedule_tasks(costs, n_workers)
    return EnumerationResult(
        n_maximal=counting.count,
        counters=counters,
        sim_time=schedule.makespan,
        extras={"schedule": schedule, "task_costs": costs, "task_nodes": nodes},
    )
