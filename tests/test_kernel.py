"""Unit tests for the simulated-GPU kernel internals (splitting, checks),
a mode-matrix characterization of its emission paths, and a smoke test
of the host-time probes that wrap the kernel's module-level names."""

import itertools
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import repro.gmbe.kernel as kernel_mod
from repro.checkpoint import load_checkpoint
from repro.core import BicliqueCollector, BicliqueCounter, Counters
from repro.core.batch import BatchMember, run_batch
from repro.core.expand import gamma_matches
from repro.core.localcount import LocalCounter
from repro.core.tasks import build_root_tasks
from repro.gmbe import GMBEConfig, SubtreeTask, gmbe_gpu, gmbe_host
from repro.gmbe.host import run_task_with_node_buffer
from repro.gmbe.kernel import _should_split
from repro.gpusim.device import A100
from repro.gpusim.faults import FaultPlan
from repro.graph import (
    BipartiteGraph,
    block_overlap_bipartite,
    power_law_bipartite,
)
from repro.graph.preprocess import prepare
from tests.test_batch import make_mixed_width


class TestShouldSplit:
    def make_task(self, n_left, n_cands):
        return SubtreeTask(
            left=np.arange(n_left, dtype=np.int32),
            right=np.array([0], dtype=np.int32),
            cands=np.arange(n_cands, dtype=np.int32),
            counts=np.ones(n_cands, dtype=np.int64),
        )

    def test_both_bounds_must_trip(self):
        cfg = GMBEConfig(bound_height=10, bound_size=200, scheduling="task")
        # height 5 <= 10: no split even though size estimate is big
        assert not _should_split(self.make_task(5, 1000), cfg)
        # height 11 > 10 but size 11*11 = 121 <= 200: no split either
        assert not _should_split(self.make_task(50, 11), cfg)

    def test_splits_when_both_exceed(self):
        cfg = GMBEConfig(bound_height=10, bound_size=100, scheduling="task")
        assert _should_split(self.make_task(50, 40), cfg)

    def test_never_splits_for_warp_block(self):
        for scheme in ("warp", "block"):
            cfg = GMBEConfig(bound_height=1, bound_size=1, scheduling=scheme)
            assert not _should_split(self.make_task(100, 100), cfg)


class TestSplitEquivalence:
    @pytest.mark.parametrize("prune", [True, False])
    def test_aggressive_split_same_set(self, prune):
        g = power_law_bipartite(200, 110, 1000, seed=13)
        ref = BicliqueCollector()
        gmbe_host(g, ref, config=GMBEConfig(prune=prune))
        got = BicliqueCollector()
        gmbe_gpu(
            g,
            got,
            config=GMBEConfig(bound_height=1, bound_size=1, prune=prune),
        )
        assert got.as_set() == ref.as_set()

    def test_split_prune_reduces_checks(self):
        g = block_overlap_bipartite(
            300, 110, 10, memberships_u=1.8, memberships_v=1.5,
            intra_p=0.35, seed=3,
        )
        cfg = GMBEConfig(bound_height=3, bound_size=20)
        on = gmbe_gpu(g, config=cfg)
        off = gmbe_gpu(g, config=cfg.with_(prune=False))
        assert on.n_maximal == off.n_maximal
        assert on.counters.non_maximal < off.counters.non_maximal

    def test_dequeued_children_counted_in_tasks(self):
        g = power_law_bipartite(300, 150, 1600, seed=14)
        hard = gmbe_gpu(g, config=GMBEConfig(bound_height=2, bound_size=4))
        soft = gmbe_gpu(g, config=GMBEConfig(bound_height=10**6, bound_size=10**9))
        assert (
            hard.extras["report"].tasks_executed
            > soft.extras["report"].tasks_executed
        )


class TestDurationModels:
    def test_block_mode_single_unit_per_sm(self):
        g = power_law_bipartite(100, 60, 500, seed=15)
        res = gmbe_gpu(g, config=GMBEConfig(scheduling="block"))
        assert res.extras["units_per_sm"] == 1

    def test_task_mode_warp_units(self):
        g = power_law_bipartite(100, 60, 500, seed=15)
        res = gmbe_gpu(g, config=GMBEConfig(warps_per_sm=8))
        assert res.extras["units_per_sm"] == 8

    def test_occupancy_derate_slows_per_warp(self):
        """With warps in excess of tasks, higher WarpPerSM cannot help,
        and past 16 the derate makes each warp strictly slower."""
        g = power_law_bipartite(120, 70, 600, seed=16)
        t16 = gmbe_gpu(g, config=GMBEConfig(warps_per_sm=16)).sim_time
        t32 = gmbe_gpu(g, config=GMBEConfig(warps_per_sm=32)).sim_time
        assert t32 >= t16


# ---------------------------------------------------------------------------
# leaves (no candidates) run in closed form, charged as the walk charges
# ---------------------------------------------------------------------------


def _leaf_kernel(graph, scheduling, backend):
    config = GMBEConfig(scheduling=scheduling, set_backend=backend)
    prepared = prepare(graph, order=config.order)
    dev = A100.with_(warps_per_sm=config.warps_per_sm)
    ledger = kernel_mod._EmissionLedger(fill=False, robust=False)
    return kernel_mod._Kernel(
        prepared, graph, config, dev, 1, ledger, root_mask=None,
        snapshot=None, fault_plan=None, writer=None, collect_stats=False,
    )


def _walked(kernel, task):
    """Cycles and Counters of ``task`` charged the way execute() charges
    a task it walks with a node buffer: the dequeue check first for a
    split child, then the walk."""
    c, base = Counters(), 0.0
    if task.needs_check:
        if not gamma_matches(kernel.g, task.left, len(task.right), c,
                             universe=task.universe):
            c.non_maximal += 1
            return kernel.duration(c), c
        c.maximal += 1
        base = kernel.duration(c)
    emitted = []
    run_task_with_node_buffer(
        kernel.g, LocalCounter(kernel.g), task,
        lambda left, right: emitted.append(left), c,
    )
    assert emitted == []
    return base + kernel.duration(c), c


class TestClosedFormLeaves:
    @pytest.mark.parametrize("backend", ["sorted", "bitset"])
    @pytest.mark.parametrize("scheduling", ["task", "warp", "block"])
    def test_leaf_charges_equal_the_node_buffer_walk(self, scheduling,
                                                     backend):
        kernel = _leaf_kernel(make_mixed_width(40, 16, seed=2), scheduling,
                              backend)
        chunk = build_root_tasks(kernel.g, np.arange(kernel.g.n_v),
                                 backend=backend)
        roots = [t for t in chunk.tasks if t is not None and not len(t.cands)]
        assert roots
        empty = np.zeros(0, dtype=np.int32)
        for root in roots:
            assert (root.universe is not None) == (backend == "bitset")
            # a split child with no candidates whose node passes its
            # dequeue check, and one whose R misses a vertex of Γ(L)
            children = [
                SubtreeTask(root.left, right, empty, empty.astype(np.int64),
                            needs_check=True, universe=root.universe,
                            lineage=root.lineage + (i,))
                for i, right in enumerate((root.right, root.right[1:]))
            ]
            for task in [root, *children]:
                assert not kernel._batch_eligible(task)
                cycles, counters = _walked(kernel, task)
                before = vars(kernel.master).copy()
                out = kernel.execute(task, 0)
                assert out.cycles == cycles and out.children == []
                delta = {k: v - before[k] for k, v in vars(kernel.master).items()}
                delta["peak_stack_depth"] = kernel.master.peak_stack_depth
                assert delta == vars(counters)

    def test_batch_charges_an_empty_member_nothing(self):
        kernel = _leaf_kernel(make_mixed_width(40, 16, seed=2), "task",
                              "bitset")
        tasks = [t for t in build_root_tasks(
            kernel.g, np.arange(kernel.g.n_v), backend="bitset").tasks
            if t is not None]
        leaves = [t for t in tasks if not len(t.cands)]
        assert leaves and len(leaves) < len(tasks)
        members = [BatchMember(t.universe, t.left, t.right, t.cands,
                               t.counts, Counters()) for t in tasks]
        out = run_batch(members)
        for t, m in zip(tasks, members):
            if not len(t.cands):
                assert vars(m.counters) == vars(Counters())
        assert out.member_ptr[-1] > 0


# ---------------------------------------------------------------------------
# mode matrix: every emission mode delivers what the plain run delivers
# ---------------------------------------------------------------------------

_GRAPHS = {
    "mixed60-swapped": lambda: make_mixed_width(60, 10, seed=1).swapped(),
    "mixed40": lambda: make_mixed_width(40, 16, seed=2),
}
_BOUNDS = {"default": {}, "tight": {"bound_height": 2, "bound_size": 8}}
#: the boolean axis is ``deliver``: True hands every emission to a
#: sink, False is a count-only run (``sink=None``)
_MATRIX = list(itertools.product(
    _GRAPHS, ("task", "warp", "block"), ("off", "auto"), (True, False),
    _BOUNDS,
))
_IDS = ["-".join(map(str, case)) for case in _MATRIX]


@lru_cache(maxsize=None)
def _graph(name):
    return _GRAPHS[name]()


def _config(scheduling, batch_tasks, bounds):
    return GMBEConfig(
        scheduling=scheduling, batch_tasks=batch_tasks, set_backend="bitset",
        max_task_retries=50, **_BOUNDS[bounds],
    )


def _run(case, **kw):
    """Run one matrix case; returns the result and the ordered
    ``(L.dtype, R.dtype, L, R)`` delivery sequence."""
    graph, scheduling, batch_tasks, deliver, bounds = case
    out = []

    def sink(left, right):
        out.append((left.dtype.str, right.dtype.str,
                    left.tolist(), right.tolist()))

    res = gmbe_gpu(
        _graph(graph), sink if deliver else None,
        config=_config(scheduling, batch_tasks, bounds), **kw,
    )
    return res, out


def _n_delivered(case):
    """Emissions a delivering plain run of ``case`` hands its sink."""
    graph, scheduling, batch_tasks, _deliver, bounds = case
    return len(_plain((graph, scheduling, batch_tasks, True, bounds))[1])


@lru_cache(maxsize=None)
def _plain(case):
    return _run(case)


class TestEmissionModeMatrix:
    @pytest.mark.parametrize("case", _MATRIX, ids=_IDS)
    def test_zero_fault_and_records_runs_match_plain(self, case, tmp_path):
        plain, plain_out = _plain(case)
        for kw in (
            {"fault_plan": FaultPlan(0)},
            {"checkpoint_path": str(tmp_path / "run.ckpt")},
        ):
            res, out = _run(case, **kw)
            assert out == plain_out
            assert vars(res.counters) == vars(plain.counters)
            assert res.sim_time == plain.sim_time
            assert (res.extras["set_backend_tasks"]
                    == plain.extras["set_backend_tasks"])
            assert res.n_maximal == plain.n_maximal == _n_delivered(case)

    @pytest.mark.parametrize("case", _MATRIX, ids=_IDS)
    def test_halt_and_resume_same_set(self, case, tmp_path):
        # Restored tasks run on the sorted backend and the resumed
        # elapsed time includes the halted prefix (DESIGN.md §9), so only
        # the set and the count are compared.
        plain, plain_out = _plain(case)
        ckpt = str(tmp_path / "halt.ckpt")
        first, _ = _run(case, checkpoint_path=ckpt, halt_after_tasks=7)
        assert first.extras["halted"]
        # every emission so far is recorded once, in prepared labels
        graph, scheduling, batch_tasks, _deliver, bounds = case
        recorded = load_checkpoint(ckpt).emissions.relabeled(
            prepare(_graph(graph))
        ).to_list()
        assert len(recorded) == len(set(recorded)) == first.n_maximal
        delivered = _plain((graph, scheduling, batch_tasks, True, bounds))[1]
        assert set(recorded) <= {
            (tuple(left), tuple(right)) for *_, left, right in delivered
        }
        res, out = _run(case, checkpoint_path=ckpt, resume=True)
        assert sorted(out) == sorted(plain_out)
        assert res.n_maximal == plain.n_maximal == _n_delivered(case)


# ---------------------------------------------------------------------------
# perfbench's layer probes still see every kernel layer
# ---------------------------------------------------------------------------


def _with_sparse_hub(g):
    """``g`` plus a disjoint sparse hub: V vertex ``h1`` has 130 U
    neighbors, each with two private degree-1 V neighbors, and shares 65
    of them with a larger hub ``h2``.  ``h1``'s root task has a
    candidate (``h2``) but a scope too sparse for the packed rows, so
    the default ``auto`` backend runs it on the sorted backend, one task
    at a time; the registry graphs' sequential tasks are all leaves,
    which run in closed form."""
    rows = np.repeat(np.arange(g.n_u), np.diff(g.u_indptr))
    edges = list(zip(rows.tolist(), np.asarray(g.u_indices).tolist()))
    u0, h1, h2 = g.n_u, g.n_v, g.n_v + 1
    edges += [(u0 + i, h1) for i in range(130)]
    edges += [(u0 + i, h2) for i in range(65)]
    edges += [(u0 + 130 + i, h2) for i in range(75)]
    edges += [(u0 + i, h2 + 1 + 2 * i + j)
              for i in range(130) for j in range(2)]
    return BipartiteGraph.from_edges(u0 + 205, h2 + 261, edges)


class TestPerfbenchProbes:
    def test_probes_record_kernel_layers_and_restore_names(self, monkeypatch):
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        import spans
        from repro.api import enumerate_maximal_bicliques
        from repro.datasets.registry import load

        before = dict(vars(kernel_mod))
        graph = _with_sparse_hub(load("GH", scale=0.1))

        def layers(run) -> set:
            tracer = spans.Tracer()
            with spans.Probes(spans.Audit(), tracer):
                run()
            return {name for _op, name in tracer.layer_times()}

        # The kernel relabels its run as one block for every sink, so
        # ``core.emit`` (``relabeling_sink``) is reached only by
        # ``gmbe_host`` and the CPU baselines.
        api = layers(lambda: enumerate_maximal_bicliques(graph))
        assert {
            "core.batch", "gmbe.execute", "gmbe.seq_task", "gpusim.sched",
            "graph.prepare",
        } <= api
        assert "core.emit" not in api
        names = layers(lambda: kernel_mod.gmbe_gpu(graph, BicliqueCounter()))
        assert {
            "core.batch", "gmbe.execute", "gmbe.seq_task", "gpusim.sched",
            "graph.prepare",
        } <= names
        assert "core.emit" not in names
        after = vars(kernel_mod)
        assert after.keys() == before.keys()
        assert all(after[k] is v for k, v in before.items())
