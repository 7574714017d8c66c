"""Tests for GMBE on the simulated GPU (Alg. 4 execution)."""

import numpy as np
import pytest

from repro.core import BicliqueCollector, reference_mbe
from repro.gmbe import GMBEConfig, gmbe_gpu, gmbe_host
from repro.gpusim import A100, RTX2080TI, V100
from repro.graph import (
    complete_bipartite,
    crown_graph,
    power_law_bipartite,
    random_bipartite,
)

SPLIT_HARD = GMBEConfig(bound_height=2, bound_size=4)


class TestCorrectness:
    @pytest.mark.parametrize("scheduling", ["task", "warp", "block"])
    def test_modes_vs_oracle(self, scheduling):
        cfg = GMBEConfig(scheduling=scheduling, bound_height=2, bound_size=4)
        for seed in range(3):
            g = random_bipartite(12, 10, 0.3, seed=seed)
            col = BicliqueCollector()
            gmbe_gpu(g, col, config=cfg)
            assert col.as_set() == reference_mbe(g), (scheduling, seed)

    def test_paper_graph(self, paper_graph):
        col = BicliqueCollector()
        res = gmbe_gpu(paper_graph, col)
        assert res.n_maximal == 6
        assert col.as_set() == reference_mbe(paper_graph)

    def test_split_equals_nosplit(self):
        """Aggressive splitting must not change the biclique set."""
        g = power_law_bipartite(250, 130, 1200, seed=5)
        hard = gmbe_gpu(g, config=SPLIT_HARD)
        soft = gmbe_gpu(g, config=GMBEConfig(bound_height=10**6, bound_size=10**9))
        assert hard.n_maximal == soft.n_maximal

    def test_matches_host(self):
        g = power_law_bipartite(300, 150, 1500, seed=6)
        assert gmbe_gpu(g).n_maximal == gmbe_host(g).n_maximal

    def test_multi_gpu_counts_invariant(self):
        g = crown_graph(9)
        ref = reference_mbe(g)
        for n in (1, 2, 4, 8):
            col = BicliqueCollector()
            gmbe_gpu(g, col, n_gpus=n, config=SPLIT_HARD)
            assert col.as_set() == ref, n

    def test_device_invariance(self):
        g = power_law_bipartite(200, 100, 900, seed=7)
        counts = {
            dev.name: gmbe_gpu(g, device=dev).n_maximal
            for dev in (A100, V100, RTX2080TI)
        }
        assert len(set(counts.values())) == 1

    def test_warps_per_sm_invariance(self):
        g = power_law_bipartite(200, 100, 900, seed=8)
        counts = {
            w: gmbe_gpu(g, config=GMBEConfig(warps_per_sm=w)).n_maximal
            for w in (8, 16, 32)
        }
        assert len(set(counts.values())) == 1

    def test_invalid_n_gpus(self, paper_graph):
        with pytest.raises(ValueError):
            gmbe_gpu(paper_graph, n_gpus=0)

    @pytest.mark.parametrize(
        "name", ["n_gpus", "halt_after_tasks", "checkpoint_every"]
    )
    @pytest.mark.parametrize("value", [1.5, "2", True, False, 0, -1, 2.0])
    def test_integer_arguments_are_validated(self, paper_graph, name, value):
        with pytest.raises(ValueError, match=name):
            gmbe_gpu(paper_graph, **{name: value})

    @pytest.mark.parametrize("value", [np.int64(2), np.int32(2), 2])
    def test_numpy_integers_are_accepted(self, paper_graph, value):
        assert gmbe_gpu(paper_graph, n_gpus=value).n_maximal == 6
        halted = gmbe_gpu(paper_graph, halt_after_tasks=value)
        assert halted.extras["halted"]

    @pytest.mark.parametrize("value", [1.5, True, "2", -1])
    def test_local_queue_capacity_is_validated(self, paper_graph, value):
        with pytest.raises(ValueError, match="local_queue_capacity"):
            gmbe_gpu(paper_graph, local_queue_capacity=value)

    @pytest.mark.parametrize("value", [0, np.int64(8)])
    def test_local_queue_capacity_accepts_integers(self, paper_graph, value):
        res = gmbe_gpu(paper_graph, local_queue_capacity=value)
        assert res.n_maximal == 6

    def test_sharded_n_gpus_is_validated(self, paper_graph):
        from repro.sharding import ShardCoordinator

        with pytest.raises(ValueError, match="n_gpus"):
            ShardCoordinator(paper_graph, 2, n_gpus_per_shard=1.5).run()


class TestSetBackendEquivalence:
    """sorted / bitset / auto must enumerate the identical biclique set
    with identical structural counters (maximality outcomes, pruning,
    nodes generated) — only the modeled work units may differ."""

    BACKENDS = ("sorted", "bitset", "auto")

    @staticmethod
    def _structural(res):
        c = res.counters
        return (
            res.n_maximal,
            c.maximal,
            c.non_maximal,
            c.pruned,
            c.nodes_generated,
        )

    def test_gpu_backends_identical(self):
        for seed in range(4):
            g = random_bipartite(16, 13, 0.3, seed=seed)
            sets_seen, structs = [], []
            for be in self.BACKENDS:
                col = BicliqueCollector()
                res = gmbe_gpu(
                    g,
                    col,
                    config=GMBEConfig(
                        set_backend=be, bound_height=2, bound_size=4
                    ),
                )
                sets_seen.append(col.as_set())
                structs.append(self._structural(res))
            assert sets_seen[0] == sets_seen[1] == sets_seen[2], seed
            assert sets_seen[0] == reference_mbe(g), seed
            assert structs[0] == structs[1] == structs[2], seed

    def test_host_backends_identical(self):
        for seed in range(4):
            g = power_law_bipartite(120, 70, 700, seed=seed)
            sets_seen, structs = [], []
            for be in self.BACKENDS:
                col = BicliqueCollector()
                res = gmbe_host(g, col, config=GMBEConfig(set_backend=be))
                sets_seen.append(col.as_set())
                structs.append(self._structural(res))
            assert sets_seen[0] == sets_seen[1] == sets_seen[2], seed
            assert structs[0] == structs[1] == structs[2], seed

    def test_no_prune_backends_identical(self):
        g = random_bipartite(14, 11, 0.35, seed=9)
        results = []
        for be in self.BACKENDS:
            col = BicliqueCollector()
            res = gmbe_gpu(
                g, col, config=GMBEConfig(set_backend=be, prune=False)
            )
            results.append((col.as_set(), self._structural(res)))
        assert results[0] == results[1] == results[2]

    def test_auto_tally_reported(self):
        g = power_law_bipartite(200, 100, 900, seed=7)
        res = gmbe_gpu(g, config=GMBEConfig(set_backend="auto"))
        tally = res.extras["set_backend_tasks"]
        assert set(tally) == {"sorted", "bitset"}
        assert tally["sorted"] + tally["bitset"] > 0

    def test_bitset_reduces_modeled_work_on_dense(self):
        g = random_bipartite(60, 40, 0.5, seed=14)
        srt = gmbe_gpu(g, config=GMBEConfig(set_backend="sorted"))
        bit = gmbe_gpu(g, config=GMBEConfig(set_backend="bitset"))
        assert bit.n_maximal == srt.n_maximal
        assert bit.counters.simt_cycles < srt.counters.simt_cycles
        assert bit.sim_time < srt.sim_time


class TestSimulationOutputs:
    @pytest.fixture(scope="class")
    def run(self):
        g = power_law_bipartite(400, 200, 2000, seed=9)
        return gmbe_gpu(g, config=GMBEConfig(bound_height=4, bound_size=40))

    def test_sim_time_positive(self, run):
        assert run.sim_time > 0

    def test_report_structure(self, run):
        rep = run.extras["report"]
        assert rep.tasks_executed > 0
        assert rep.makespan_cycles > 0
        assert len(rep.per_device_cycles) == 1

    def test_splits_happened(self, run):
        assert run.extras["report"].tasks_split > 0

    def test_queue_stats_nonzero_when_splitting(self, run):
        stats = run.extras["queue_stats"][0]
        assert stats.local_enqueues + stats.global_enqueues > 0
        assert stats.local_dequeues + stats.global_dequeues > 0

    def test_warp_efficiency_in_range(self, run):
        # §6.2's warp execution efficiency: useful set-op lanes over the
        # 32 lanes of every charged SIMT warp step
        c = run.counters
        assert run.extras["warp_efficiency"] == (
            c.set_op_work / (32 * c.simt_cycles)
        )
        assert 0.0 < run.extras["warp_efficiency"] <= 1.0

    def test_divergent_workload_lowers_efficiency(self):
        """Hub-skewed candidates (many short rows) waste lanes vs a
        dense uniform graph."""
        dense = gmbe_gpu(complete_bipartite(64, 40))
        sparse = gmbe_gpu(random_bipartite(200, 150, 0.02, seed=3))
        assert (
            sparse.extras["warp_efficiency"]
            < dense.extras["warp_efficiency"]
        )

    def test_recorder_intervals_well_formed(self, run):
        rec = run.extras["report"].recorders[0]
        for spans in rec.intervals.values():
            for s, e in spans:
                assert e >= s >= 0.0

    def test_per_gpu_seconds(self, run):
        per = run.extras["per_gpu_seconds"]
        assert len(per) == 1
        assert per[0] == pytest.approx(run.sim_time)


class TestSchedulingPerformance:
    def test_task_centric_not_slower_than_warp_on_skewed(self):
        """The Fig. 8/9 claim: task splitting rebalances skewed trees."""
        from repro.graph import block_overlap_bipartite

        g = block_overlap_bipartite(
            500, 170, 12, memberships_u=1.8, memberships_v=1.5, intra_p=0.35, seed=10
        )
        task = gmbe_gpu(g, config=GMBEConfig(scheduling="task"))
        warp = gmbe_gpu(g, config=GMBEConfig(scheduling="warp"))
        assert task.n_maximal == warp.n_maximal
        assert task.sim_time <= warp.sim_time * 1.05

    def test_multi_gpu_speedup_on_wide_work(self):
        from repro.graph import block_overlap_bipartite

        g = block_overlap_bipartite(
            600, 200, 14, memberships_u=1.8, memberships_v=1.5, intra_p=0.32, seed=11
        )
        t1 = gmbe_gpu(g, n_gpus=1).sim_time
        t4 = gmbe_gpu(g, n_gpus=4).sim_time
        assert t4 <= t1  # more devices never slower under the shared counter


def _collect(graph, **kw):
    out = []
    res = gmbe_gpu(graph, lambda L, R: out.append((tuple(L), tuple(R))), **kw)
    return res, out


def _small_chunks(monkeypatch, graph, roots_per_chunk):
    """Shrink the bulk-build budget to about ``roots_per_chunk`` roots."""
    from repro.core import tasks
    from repro.graph.preprocess import prepare

    g = prepare(graph).graph
    volume = int(g.degrees_u[g.v_indices].sum()) / max(g.n_v, 1)
    per_root = volume * tasks._TRIPLE_BYTES + tasks._ROOT_BYTES
    budget = int(per_root * roots_per_chunk)
    monkeypatch.setattr(tasks, "ROOT_CHUNK_BYTES", budget)
    return g, tasks.root_chunks(g)


class TestRootStream:
    """The kernel's root stream is unchanged by how roots are chunked."""

    def test_chunk_budget_is_unobservable(self, monkeypatch):
        from repro.datasets import registry

        graph = registry.load("GH", scale=0.1)
        plain, out = _collect(graph)
        _, chunks = _small_chunks(monkeypatch, graph, 3)
        assert len(chunks) > 3
        small, out_small = _collect(graph)
        assert out_small == out
        assert vars(small.counters) == vars(plain.counters)
        assert small.sim_time == plain.sim_time
        assert (
            small.extras["report"].makespan_cycles
            == plain.extras["report"].makespan_cycles
        )

    @pytest.mark.parametrize("roots_per_chunk", [None, 1, 3])
    def test_sharded_masks_union_equals_plain_run(
        self, monkeypatch, roots_per_chunk
    ):
        graph = random_bipartite(30, 26, 0.25, seed=21)
        _, plain = _collect(graph)
        if roots_per_chunk is None:
            from repro.graph.preprocess import prepare

            n_v = prepare(graph).graph.n_v
        else:
            n_v = _small_chunks(monkeypatch, graph, roots_per_chunk)[0].n_v
        v = np.arange(n_v)
        # owned vertices further apart than a chunk
        masks = [v % 7 == r for r in range(7)]
        union = [b for m in masks for b in _collect(graph, root_mask=m)[1]]
        assert sorted(union) == sorted(plain)
        # a mask owning nothing, then one owning only the last vertex
        none = np.zeros(n_v, dtype=bool)
        res, out = _collect(graph, root_mask=none)
        assert out == [] and res.extras["report"].tasks_executed == 0
        last = none.copy()
        last[-1] = True
        parts = _collect(graph, root_mask=~last)[1] + _collect(
            graph, root_mask=last
        )[1]
        assert sorted(parts) == sorted(plain)

    def test_halt_and_resume_mid_chunk(self, monkeypatch, tmp_path):
        from repro.checkpoint import load_checkpoint

        graph = random_bipartite(40, 30, 0.3, seed=3)
        cfg = GMBEConfig(bound_height=2, bound_size=4, set_backend="sorted")
        _, plain = _collect(graph, config=cfg)

        def halt_and_resume(path, halt):
            first, _ = _collect(
                graph, config=cfg, checkpoint_path=str(path),
                checkpoint_every=1, halt_after_tasks=halt,
            )
            assert first.extras["halted"] is True
            cursor = load_checkpoint(path).root_cursor
            resumed, out2 = _collect(
                graph, config=cfg, checkpoint_path=str(path), resume=True
            )
            # the resumed run replays the snapshot's emissions first
            return cursor, resumed, out2

        # one chunk holding every root: the resume cursor is inside it
        cursor, whole, out_whole = halt_and_resume(tmp_path / "a.ckpt", 17)
        assert 0 < cursor < graph.n_v
        assert sorted(out_whole) == sorted(plain)
        # small chunks, a cursor that is not on a chunk boundary
        _, chunks = _small_chunks(monkeypatch, graph, 4)
        assert len(chunks) > 2
        assert cursor not in {int(c[0]) for c in chunks}
        cursor_small, small, out_small = halt_and_resume(
            tmp_path / "b.ckpt", 17
        )
        assert cursor_small == cursor
        assert sorted(out_small) == sorted(plain)
        assert vars(small.counters) == vars(whole.counters)
        assert small.sim_time == whole.sim_time

    @pytest.mark.parametrize(
        "code,scale", [("TM", 0.75), ("WA", 1.0), ("Mti", 1.0), ("GH", 0.3)]
    )
    def test_every_edge_covered(self, code, scale):
        from repro.datasets import registry
        from repro.verify import check_edge_cover

        graph = registry.load(code, scale=scale)
        res, out = _collect(graph)
        assert res.n_maximal == len(out) > 0
        assert check_edge_cover(graph, out) == []
