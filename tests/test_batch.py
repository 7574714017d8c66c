"""Cross-task batched execution tests (DESIGN.md §10).

The batching layer is a wall-clock optimization with a strict contract:
it may never change *anything* observable in the simulation — not the
biclique set, not the simulated-cycle ``Counters``, not the schedule
(``sim_time``), not checkpoint/resume or fault-recovery behavior.  These
tests pin that contract at three levels:

1. the numpy primitives in :mod:`repro.core.batch` against plain loops;
2. the lockstep runner :func:`run_batch` against the sequential
   node-buffer walk, exact counters and exact emissions;
3. the full kernel with ``batch_tasks`` off vs. on, across every
   registry graph and the execution knobs, plus checkpoint halt/resume,
   fault injection, and the telemetry on/off instrumentation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_mod
import repro.gmbe.kernel as kernel_mod
from repro.core.batch import (
    BatchMember,
    BatchStats,
    batch_gamma_matches,
    batch_intersect,
    batch_popcount,
    lane_state_bytes,
    ragged_split,
    ragged_stack,
    run_batch,
)
from repro.core.bicliques import BicliqueCounter, Counters, RaggedBicliques
from repro.core.bitset import BitsetUniverse, popcount_words
from repro.core.localcount import LocalCounter
from repro.core.tasks import build_root_task
from repro.datasets import registry
from repro.gmbe import GMBEConfig, gmbe_gpu
from repro.gmbe.host import run_task_with_node_buffer
from repro.graph import BipartiteGraph, random_bipartite
from repro.graph.preprocess import prepare


def make_random(n_u: int, n_v: int, p: float, seed: int) -> BipartiteGraph:
    return random_bipartite(n_u, n_v, p, seed=seed)


def _enumerate(graph, **kw):
    out = []
    res = gmbe_gpu(graph, lambda L, R: out.append((tuple(L), tuple(R))), **kw)
    return res, sorted(out)


# ---------------------------------------------------------------------------
# 1. primitives
# ---------------------------------------------------------------------------


class TestPrimitives:
    def _rand_words(self, rng, *shape):
        return rng.integers(0, 2**63, size=shape, dtype=np.uint64)

    def test_batch_intersect_matches_rowwise_and(self):
        rng = np.random.default_rng(0)
        rows = self._rand_words(rng, 6, 9, 4)
        masks = self._rand_words(rng, 6, 4)
        got = batch_intersect(rows, masks[:, None, :])
        for k in range(6):
            for i in range(9):
                assert (got[k, i] == (rows[k, i] & masks[k])).all()

    def test_batch_intersect_out_param(self):
        rng = np.random.default_rng(1)
        rows = self._rand_words(rng, 3, 5)
        masks = self._rand_words(rng, 3, 5)
        out = np.empty_like(rows)
        got = batch_intersect(rows, masks, out=out)
        assert got is out
        assert (out == (rows & masks)).all()

    def test_batch_popcount_matches_python_bitcount(self):
        rng = np.random.default_rng(2)
        words = self._rand_words(rng, 4, 7, 3)
        got = batch_popcount(words)
        assert got.shape == (4, 7)
        assert got.dtype == np.int64
        for k in range(4):
            for i in range(7):
                expect = sum(int(w).bit_count() for w in words[k, i])
                assert int(got[k, i]) == expect

    def test_batch_popcount_agrees_with_popcount_words(self):
        rng = np.random.default_rng(3)
        words = self._rand_words(rng, 5, 6)
        assert (
            batch_popcount(words)
            == popcount_words(words).sum(axis=-1, dtype=np.int64)
        ).all()

    def test_ragged_stack_split_roundtrip(self):
        rng = np.random.default_rng(5)
        blocks = [
            rng.integers(0, 2**63, size=(n, w), dtype=np.uint64)
            for n, w in ((3, 2), (1, 4), (5, 1), (2, 4))
        ]
        n_words = max(b.shape[1] for b in blocks)
        stacked, lengths = ragged_stack(blocks, n_words)
        assert stacked.shape == (11, n_words)
        assert lengths.tolist() == [3, 1, 5, 2]
        # zero-padding beyond each block's own word count
        for blk, chunk in zip(blocks, ragged_split(stacked, lengths)):
            assert (chunk[:, : blk.shape[1]] == blk).all()
            assert not chunk[:, blk.shape[1] :].any()


# ---------------------------------------------------------------------------
# 2. lockstep runner vs. the sequential node-buffer walk
# ---------------------------------------------------------------------------


def _bitset_root_tasks(g):
    counter = LocalCounter(g)
    tasks = []
    for v in range(g.n_v):
        t = build_root_task(g, v, None, backend="bitset")
        if t is not None and t.universe is not None and len(t.cands):
            tasks.append(t)
    return counter, tasks


def _run_sequential(g, counter, tasks, *, prune=True):
    c = Counters()
    sink = BicliqueCounter()
    emitted = []
    for t in tasks:
        run_task_with_node_buffer(
            g, counter, t,
            lambda L, R: emitted.append((tuple(L), tuple(R))),
            c, prune=prune,
        )
    del sink
    return c, sorted(emitted)


def _run_lockstep(tasks, *, prune=True, stats=None):
    c = Counters()
    out = run_batch(
        [
            BatchMember(
                universe=t.universe, left=t.left, right=t.right,
                cands=t.cands, counts=t.counts, counters=c,
            )
            for t in tasks
        ],
        prune=prune,
        stats=stats,
    )
    emitted = [
        (tuple(L), tuple(R))
        for i in range(len(tasks))
        for L, R in out.pairs(i)
    ]
    return c, sorted(emitted)


def make_mixed_width(n_u: int, n_v: int, seed: int) -> BipartiteGraph:
    """V vertices cycle through three densities, so root left sets span
    1, 2 and 3 uint64 words within one graph."""
    rng = np.random.default_rng(seed)
    edges = []
    for v in range(n_v):
        p = (0.15, 0.5, 0.85)[v % 3]
        edges += [(int(u), v) for u in np.nonzero(rng.random(n_u) < p)[0]]
    return BipartiteGraph.from_edges(n_u, n_v, edges)


def _per_task_sequential(g, counter, task, *, prune=True):
    c = Counters()
    emitted = []
    run_task_with_node_buffer(
        g, counter, task, lambda L, R: emitted.append((L, R)), c, prune=prune
    )
    return c, emitted


def _assert_members_match_per_task(
    g, counter, tasks, *, prune, nonempty=True, **kw
):
    """One :func:`run_batch` call over ``tasks``: every member's arrays,
    dtypes, order and Counters equal its own sequential walk, and (with
    ``nonempty``) some member emits.  Returns the per-member sequential
    Counters."""
    counters = [Counters() for _ in tasks]
    out = run_batch(
        [
            BatchMember(
                universe=t.universe, left=t.left, right=t.right,
                cands=t.cands, counts=t.counts, counters=c,
            )
            for t, c in zip(tasks, counters)
        ],
        prune=prune,
        **kw,
    )
    total = 0
    seq = []
    for i, (t, c_bat) in enumerate(zip(tasks, counters)):
        c_seq, e_seq = _per_task_sequential(g, counter, t, prune=prune)
        e_bat = list(out.pairs(i))
        assert len(e_bat) == len(e_seq)
        for (lb, rb), (ls, rs) in zip(e_bat, e_seq):
            assert lb.dtype == ls.dtype and rb.dtype == rs.dtype
            np.testing.assert_array_equal(lb, ls)
            np.testing.assert_array_equal(rb, rs)
        assert vars(c_bat) == vars(c_seq)
        total += len(e_seq)
        seq.append(c_seq)
    assert len(out) == total
    assert total > 0 or not nonempty
    return seq


class TestRunBatchEquivalence:
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_counters_and_emissions_identical(self, seed, prune):
        g = make_random(24, 18, 0.35, seed=seed)
        counter, tasks = _bitset_root_tasks(g)
        if not tasks:
            pytest.skip("no bitset-eligible roots for this draw")
        c_seq, e_seq = _run_sequential(g, counter, tasks, prune=prune)
        c_bat, e_bat = _run_lockstep(tasks, prune=prune)
        assert e_bat == e_seq
        assert vars(c_bat) == vars(c_seq)

    def test_single_member_batch(self):
        g = make_random(16, 12, 0.5, seed=11)
        counter, tasks = _bitset_root_tasks(g)
        c_seq, e_seq = _run_sequential(g, counter, tasks[:1])
        c_bat, e_bat = _run_lockstep(tasks[:1])
        assert e_bat == e_seq and vars(c_bat) == vars(c_seq)

    def test_stats_record_rounds_and_widths(self):
        g = make_random(20, 16, 0.45, seed=3)
        counter, tasks = _bitset_root_tasks(g)
        stats = BatchStats()
        _run_lockstep(tasks, stats=stats)
        assert stats.rounds >= 1
        assert len(stats.tasks_per_round) == stats.rounds
        assert max(stats.tasks_per_round) <= len(tasks)
        assert min(stats.tasks_per_round) >= 1

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_width_members_match_per_task(self, seed, prune):
        """Multi-word (> 64 left vertices) and 1-word roots share one
        batch; every member's arrays, dtypes, order and Counters equal
        its own sequential walk."""
        g = make_mixed_width(200, 12, seed=seed)
        counter, tasks = _bitset_root_tasks(g)
        assert {t.universe.n_words for t in tasks} == {1, 2, 3}
        _assert_members_match_per_task(g, counter, tasks, prune=prune)

    @pytest.mark.parametrize("prune", [True, False])
    def test_member_forks_root_children_into_idle_lanes(self, prune):
        """Lanes beyond the members take over maximal root-level
        children: one member then needs fewer rounds than nodes, and its
        emissions and Counters are still those of its sequential walk."""
        g = make_random(40, 24, 0.4, seed=3)
        counter, tasks = _bitset_root_tasks(g)
        task = max(tasks, key=lambda t: len(t.cands))
        stats = BatchStats()
        (c_seq,) = _assert_members_match_per_task(
            g, counter, [task], prune=prune, lanes=16, stats=stats
        )
        # unforked, one lane pushes one node per round
        assert stats.rounds < c_seq.nodes_generated
        assert stats.tasks_per_round == [1] * stats.rounds

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_width_members_fork_into_idle_lanes(self, seed, prune):
        g = make_mixed_width(200, 12, seed=seed)
        counter, tasks = _bitset_root_tasks(g)
        stats = BatchStats()
        seq = _assert_members_match_per_task(
            g, counter, tasks, prune=prune, lanes=4 * len(tasks),
            stats=stats,
        )
        assert stats.rounds < max(c.nodes_generated for c in seq)

    @pytest.mark.parametrize("first_levels", [1, 2])
    def test_undo_stacks_grow_on_demand(self, monkeypatch, first_levels):
        monkeypatch.setattr(batch_mod, "_FIRST_LEVELS", first_levels)
        g = make_mixed_width(200, 12, seed=0)
        counter, tasks = _bitset_root_tasks(g)
        c_seq, e_seq = _run_sequential(g, counter, tasks)
        c_bat, e_bat = _run_lockstep(tasks)
        assert e_bat == e_seq
        assert vars(c_bat) == vars(c_seq)
        assert c_seq.peak_stack_depth > 2 * first_levels  # stacks deepened

    def test_members_without_candidates_keep_their_index(self):
        g = make_random(24, 18, 0.35, seed=2)
        counter, tasks = _bitset_root_tasks(g)
        idle = tasks[0]
        empty = BatchMember(
            universe=idle.universe, left=idle.left, right=idle.right,
            cands=idle.cands[:0], counts=idle.counts[:0], counters=Counters(),
        )
        members = [empty] + [
            BatchMember(
                universe=t.universe, left=t.left, right=t.right,
                cands=t.cands, counts=t.counts, counters=Counters(),
            )
            for t in tasks[:3]
        ] + [empty]
        out = run_batch(members)
        assert list(out.pairs(0)) == list(out.pairs(4)) == []
        assert vars(empty.counters) == vars(Counters())
        for i, t in enumerate(tasks[:3], 1):
            c_seq, e_seq = _per_task_sequential(g, counter, t)
            got = [(tuple(L), tuple(R)) for L, R in out.pairs(i)]
            assert got == [(tuple(L), tuple(R)) for L, R in e_seq]
            assert vars(members[i].counters) == vars(c_seq)

    def test_empty_batch_returns_empty_emissions(self):
        out = run_batch([])
        assert len(out) == 0 and out.member_ptr.tolist() == [0]

    def test_lane_state_bytes_bounds_every_padded_array(self):
        # terms: scope rows (and the round's AND), masks, nls levels
        # (which bound the candidate-set levels), left-id decode table;
        # 1-word lanes take the narrowest nls dtype, wide ones widen it
        assert lane_state_bytes(4, 10, 1, 100, 5) == 4 * max(80, 40, 500, 256)
        assert lane_state_bytes(4, 10, 5, 200, 5) == 4 * 5 * 200 * 2
        # narrow scopes: the left-id decode table dominates
        assert lane_state_bytes(4, 2, 5, 10, 3) == 4 * 5 * 64 * 4
        assert lane_state_bytes(128, 232, 11, 50, 10) == 128 * 232 * 11 * 8
        # no per-lane candidate row outside the levels any more
        assert lane_state_bytes(4, 2, 1, 100, 2) == 4 * 1 * 64 * 4

    def test_stats_record_each_batch_lane_count(self):
        g = make_random(20, 16, 0.45, seed=3)
        counter, tasks = _bitset_root_tasks(g)
        stats = BatchStats()
        _assert_members_match_per_task(
            g, counter, tasks, prune=True, lanes=len(tasks) + 5, stats=stats
        )
        run_batch([], stats=stats)  # no live member: no round, no width
        assert stats.lanes == [len(tasks) + 5]

    def test_batch_gamma_matches_agrees_with_scalar_gamma(self):
        from repro.core.expand import gamma_matches

        g = make_random(20, 16, 0.4, seed=7)
        counter, tasks = _bitset_root_tasks(g)
        universes = [t.universe for t in tasks]
        lefts = [t.left for t in tasks]
        right_sizes = [len(t.right) for t in tasks]
        c_bat = Counters()
        got = batch_gamma_matches(
            universes, lefts, right_sizes, [c_bat] * len(tasks)
        )
        c_seq = Counters()
        expect = [
            gamma_matches(g, L, rs, c_seq, universe=u)
            for u, L, rs in zip(universes, lefts, right_sizes)
        ]
        assert got == expect
        assert vars(c_bat) == vars(c_seq)


# ---------------------------------------------------------------------------
# 3. full kernel: batch_tasks off vs. on
# ---------------------------------------------------------------------------


class TestKernelEquivalence:
    @pytest.mark.parametrize("code", registry.DATASET_ORDER)
    def test_every_registry_graph_bit_identical(self, code):
        g = prepare(registry.load(code, scale=0.1), order="degree").graph
        r_off, e_off = _enumerate(g, config=GMBEConfig(batch_tasks="off"))
        r_on, e_on = _enumerate(g, config=GMBEConfig(batch_tasks="auto"))
        assert e_on == e_off
        assert vars(r_on.counters) == vars(r_off.counters)
        assert r_on.sim_time == r_off.sim_time

    @pytest.mark.parametrize("set_backend", ["auto", "sorted", "bitset"])
    @pytest.mark.parametrize("order", ["degree", "degeneracy", "none"])
    def test_backend_and_order_combos(self, set_backend, order, paper_graph):
        g = make_random(28, 20, 0.3, seed=1)
        for graph in (paper_graph, g):
            base = GMBEConfig(
                set_backend=set_backend, order=order, batch_tasks="off"
            )
            on = GMBEConfig(
                set_backend=set_backend, order=order, batch_tasks="auto"
            )
            r_off, e_off = _enumerate(graph, config=base)
            r_on, e_on = _enumerate(graph, config=on)
            assert e_on == e_off
            assert vars(r_on.counters) == vars(r_off.counters)
            assert r_on.sim_time == r_off.sim_time

    @pytest.mark.parametrize("batch_tasks", [1, 2, 7, 64])
    def test_explicit_batch_sizes(self, batch_tasks):
        g = make_random(30, 24, 0.3, seed=5)
        _, e_off = _enumerate(g, config=GMBEConfig(batch_tasks="off"))
        r_on, e_on = _enumerate(g, config=GMBEConfig(batch_tasks=batch_tasks))
        assert e_on == e_off

    @pytest.mark.parametrize("scheduling", ["task", "warp", "block"])
    def test_split_tasks_with_batching(self, scheduling):
        """Deep splits: batch-eligible leaves mixed with split parents."""
        g = make_random(32, 26, 0.35, seed=9)
        kw = dict(
            scheduling=scheduling, bound_height=2, bound_size=8,
            set_backend="bitset",
        )
        r_off, e_off = _enumerate(g, config=GMBEConfig(batch_tasks="off", **kw))
        r_on, e_on = _enumerate(g, config=GMBEConfig(batch_tasks="auto", **kw))
        assert e_on == e_off
        assert vars(r_on.counters) == vars(r_off.counters)
        assert r_on.sim_time == r_off.sim_time

    def test_multi_gpu_with_batching(self):
        g = make_random(28, 22, 0.35, seed=13)
        r_off, e_off = _enumerate(
            g, config=GMBEConfig(batch_tasks="off"), n_gpus=2
        )
        r_on, e_on = _enumerate(
            g, config=GMBEConfig(batch_tasks="auto"), n_gpus=2
        )
        assert e_on == e_off
        assert r_on.sim_time == r_off.sim_time


class TestDeliveryAndAdmission:
    def test_delivery_order_and_dtypes_identical(self):
        """Unsorted: the kernel delivers the same arrays, in the same
        order and dtypes, with batching on as off — mixed-width roots."""
        g = make_mixed_width(200, 12, seed=1)

        def run(batch_tasks):
            out = []

            def sink(L, R):
                out.append((L.dtype, R.dtype, tuple(L), tuple(R)))

            config = GMBEConfig(batch_tasks=batch_tasks, set_backend="bitset")
            return gmbe_gpu(g, sink, config=config), out

        r_off, e_off = run("off")
        r_on, e_on = run("auto")
        assert e_on == e_off and e_off
        assert vars(r_on.counters) == vars(r_off.counters)
        assert r_on.sim_time == r_off.sim_time

    @staticmethod
    def _swapped_graph() -> BipartiteGraph:
        """``n_u < n_v`` and a non-identity degree order, so batch
        relabelling both permutes and swaps sides."""
        g = make_mixed_width(200, 12, seed=1).swapped()
        p = prepare(g)
        assert p.swapped
        assert (p.v_original != np.arange(len(p.v_original))).any()
        return g

    def test_relabeled_matches_per_emission_relabel(self):
        g_in = self._swapped_graph()
        prepared = prepare(g_in)
        counter, tasks = _bitset_root_tasks(prepared.graph)
        em = run_batch([
            BatchMember(
                universe=t.universe, left=t.left, right=t.right,
                cands=t.cands, counts=t.counts, counters=Counters(),
            )
            for t in tasks
        ])
        bulk = RaggedBicliques.relabeled(em, prepared)
        assert len(bulk) == len(em) > 1
        for k in range(len(em)):
            el, er = prepared.biclique_to_input_labels(
                em.left[em.left_ptr[k]:em.left_ptr[k + 1]],
                em.right[em.right_ptr[k]:em.right_ptr[k + 1]],
            )
            bl = bulk.left[bulk.left_ptr[k]:bulk.left_ptr[k + 1]]
            br = bulk.right[bulk.right_ptr[k]:bulk.right_ptr[k + 1]]
            assert bl.dtype == el.dtype == np.int64
            assert bl.tolist() == el.tolist()
            assert br.tolist() == er.tolist()

    def test_swapped_graph_bulk_delivery_identical(self):
        """Batched and unbatched runs deliver the same relabelled
        arrays, dtypes and order."""
        g = self._swapped_graph()

        def run(batch_tasks):
            out = []

            def sink(L, R):
                out.append((L.dtype, R.dtype, tuple(L), tuple(R)))

            config = GMBEConfig(batch_tasks=batch_tasks, set_backend="bitset")
            return gmbe_gpu(g, sink, config=config), out

        r_off, e_off = run("off")
        r_on, e_on = run("auto")
        assert e_on == e_off and e_off
        assert r_on.n_maximal == r_off.n_maximal == len(e_off)
        assert vars(r_on.counters) == vars(r_off.counters)
        assert r_on.sim_time == r_off.sim_time

    def test_swapped_graph_robust_runs_match_plain(self, tmp_path):
        """A fault-plan run (per-task dedup) and a checkpoint-resumed
        run (the fill seeded from the checkpoint's prepared-label block)
        both report the plain set in input labels."""
        from repro.gpusim.faults import FaultPlan

        g = self._swapped_graph()
        cfg = GMBEConfig(
            batch_tasks="auto", set_backend="bitset", max_task_retries=50
        )
        r_plain, plain = _enumerate(g, config=cfg)

        r_fault, faulted = _enumerate(
            g, config=cfg,
            fault_plan=FaultPlan(
                3, p_sm_crash=0.05, p_warp_hang=0.05, max_faults=16
            ),
        )
        assert len(r_fault.extras["fault_log"]) > 0
        assert r_fault.extras["tasks_lost"] == 0
        assert faulted == plain
        assert r_fault.n_maximal == r_plain.n_maximal

        ckpt = tmp_path / "bulk.ckpt"
        r1, first = _enumerate(
            g, config=cfg, checkpoint_path=str(ckpt),
            checkpoint_every=4, halt_after_tasks=6,
        )
        assert r1.extras.get("halted") and ckpt.exists()
        r2, resumed = _enumerate(
            g, config=cfg, checkpoint_path=str(ckpt), resume=True
        )
        assert r2.extras["resumed"] is True
        assert resumed == plain
        assert r2.n_maximal == r_plain.n_maximal

    def test_admission_respects_byte_budget(self, monkeypatch):
        budget = 4096
        seen = []
        real = run_batch

        def spy(members, *, prune=True, stats=None, lanes=None):
            seen.append((
                len(members),
                lanes,
                lane_state_bytes(
                    lanes,
                    max(len(m.universe.scope) for m in members),
                    max(m.universe.n_words for m in members),
                    max(max(len(m.cands), 1) for m in members),
                    max(min(len(m.left), len(m.cands)) for m in members) + 2,
                ),
            ))
            return real(members, prune=prune, stats=stats, lanes=lanes)

        monkeypatch.setattr(kernel_mod, "run_batch", spy)
        monkeypatch.setattr(kernel_mod, "_BATCH_ARRAY_BYTES", budget)
        g = make_random(26, 20, 0.4, seed=6)
        r_off, e_off = _enumerate(g, config=GMBEConfig(batch_tasks="off"))
        r_on, e_on = _enumerate(g, config=GMBEConfig(batch_tasks="auto"))
        assert e_on == e_off
        assert vars(r_on.counters) == vars(r_off.counters)
        assert max(n for n, _, _ in seen) > 1  # still batching, just narrower
        assert all(lanes >= n for n, lanes, _ in seen)
        # every lane, forked or not, fits the budget
        assert all(lanes == 1 or b <= budget for _, lanes, b in seen)


    @pytest.mark.parametrize("budget", [4096, None])
    def test_lane_count_sized_by_budget_and_root_children(
        self, monkeypatch, budget
    ):
        """The lockstep width is the most lanes the byte budget fits, at
        most one per member and root-level child (the most lanes a batch
        can keep busy, since only root-level children fork)."""
        if budget is not None:
            monkeypatch.setattr(kernel_mod, "_BATCH_ARRAY_BYTES", budget)
        budget = kernel_mod._BATCH_ARRAY_BYTES
        seen = []
        real = kernel_mod._Kernel._admit_batch

        def spy(self, seed, device_id):
            members, lanes = real(self, seed, device_id)
            seen.append((list(members), lanes))
            return members, lanes

        monkeypatch.setattr(kernel_mod._Kernel, "_admit_batch", spy)
        g = make_random(26, 20, 0.4, seed=6)
        _enumerate(g, config=GMBEConfig(batch_tasks="auto"))
        assert seen
        bound_by_budget = False
        for members, lanes in seen:
            dims = [max(d) for d in zip(*map(kernel_mod._lane_dims, members))]
            forkable = len(members) + sum(len(t.cands) for t in members)
            assert len(members) <= lanes <= forkable
            assert lanes == len(members) or (
                lane_state_bytes(lanes, *dims) <= budget
            )
            bound_by_budget |= lanes < forkable
        assert any(lanes > len(members) for members, lanes in seen)
        assert bound_by_budget == (budget == 4096)


class TestRobustness:
    def test_fault_injection_equivalence(self):
        from repro.gpusim.faults import FaultPlan

        g = make_random(26, 20, 0.35, seed=2)
        cfg_off = GMBEConfig(batch_tasks="off", max_task_retries=50)
        cfg_on = GMBEConfig(batch_tasks="auto", max_task_retries=50)
        for seed in (0, 7, 23):
            plan = lambda: FaultPlan(
                seed, p_sm_crash=0.02, p_warp_hang=0.03,
                p_queue_drop=0.02, p_mem_pressure=0.02, max_faults=32,
            )
            r_off, e_off = _enumerate(g, config=cfg_off, fault_plan=plan())
            r_on, e_on = _enumerate(g, config=cfg_on, fault_plan=plan())
            assert r_off.extras["tasks_lost"] == 0
            assert r_on.extras["tasks_lost"] == 0
            assert e_on == e_off
            assert r_on.sim_time == r_off.sim_time

    def test_checkpoint_halt_resume_with_batching(self, tmp_path):
        g = make_random(30, 24, 0.35, seed=4)
        cfg = GMBEConfig(
            batch_tasks="auto", bound_height=2, bound_size=8,
            set_backend="bitset",
        )
        _, base = _enumerate(g, config=GMBEConfig(batch_tasks="off"))
        ckpt = tmp_path / "batch.ckpt"
        r1, out1 = _enumerate(
            g, config=cfg, checkpoint_path=str(ckpt),
            checkpoint_every=8, halt_after_tasks=40,
        )
        if r1.extras.get("halted"):
            assert ckpt.exists()
            r2, _ = _enumerate(
                g, config=cfg, checkpoint_path=str(ckpt), resume=True
            )
            assert r2.extras["resumed"] is True
            _, out_full = _enumerate(g, config=cfg)
            assert out_full == base
        else:
            assert out1 == base


# ---------------------------------------------------------------------------
# telemetry instrumentation
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_batch_metrics_populated_when_enabled(self):
        from repro.telemetry import Telemetry

        g = make_random(26, 20, 0.4, seed=6)
        t = Telemetry()
        gmbe_gpu(g, config=GMBEConfig(batch_tasks="auto"), telemetry=t)
        rounds = t.registry.get("sim.batch.rounds")
        hist = t.registry.get("sim.batch.tasks_per_round")
        assert rounds is not None and rounds.value >= 1
        assert hist is not None and hist.count >= 1
        assert hist.max >= 1

    def test_lane_histogram_records_each_batch_width(self, monkeypatch):
        from repro.telemetry import Telemetry

        widths = []
        real = run_batch

        def spy(members, *, prune=True, stats=None, lanes=None):
            if any(len(m.cands) for m in members):
                widths.append(max(len(members), lanes))
            return real(members, prune=prune, stats=stats, lanes=lanes)

        monkeypatch.setattr(kernel_mod, "run_batch", spy)
        g = make_random(26, 20, 0.4, seed=6)
        t = Telemetry()
        gmbe_gpu(g, config=GMBEConfig(batch_tasks="auto"), telemetry=t)
        hist = t.registry.get("sim.batch.lanes")
        assert widths and hist is not None
        assert hist.count == len(widths)
        assert hist.max == max(widths) and hist.total == sum(widths)

    def test_no_batch_metrics_when_batching_off(self):
        from repro.telemetry import Telemetry

        g = make_random(20, 16, 0.4, seed=6)
        t = Telemetry()
        gmbe_gpu(g, config=GMBEConfig(batch_tasks="off"), telemetry=t)
        assert t.registry.get("sim.batch.rounds") is None

    def test_zero_per_round_overhead_without_telemetry(self, monkeypatch):
        """Telemetry off ⇒ the batch path must not allocate or update any
        stats object — the only admissible cost is the single
        ``stats is None`` check inside :func:`run_batch`."""
        seen = []
        real = run_batch

        def spy(members, *, prune=True, stats=None, lanes=None):
            seen.append(stats)
            return real(members, prune=prune, stats=stats, lanes=lanes)

        monkeypatch.setattr(kernel_mod, "run_batch", spy)
        g = make_random(26, 20, 0.4, seed=6)
        gmbe_gpu(g, config=GMBEConfig(batch_tasks="auto"), telemetry=None)
        assert seen, "batched path never engaged"
        assert all(s is None for s in seen)

    def test_stats_object_threaded_when_telemetry_on(self, monkeypatch):
        from repro.telemetry import Telemetry

        seen = []
        real = run_batch

        def spy(members, *, prune=True, stats=None, lanes=None):
            seen.append(stats)
            return real(members, prune=prune, stats=stats, lanes=lanes)

        monkeypatch.setattr(kernel_mod, "run_batch", spy)
        g = make_random(26, 20, 0.4, seed=6)
        gmbe_gpu(g, config=GMBEConfig(batch_tasks="auto"), telemetry=Telemetry())
        assert seen and all(isinstance(s, BatchStats) for s in seen)
        assert len({id(s) for s in seen}) == 1  # one stats object per run


# ---------------------------------------------------------------------------
# property: any lockstep width from n to n + Σ|C_i| is invisible per member
# ---------------------------------------------------------------------------


@given(
    n_u=st.integers(4, 100),
    n_v=st.integers(3, 14),
    p=st.floats(0.3, 0.85),
    seed=st.integers(0, 2**16),
    prune=st.booleans(),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_property_any_lane_count_matches_per_task(
    n_u, n_v, p, seed, prune, data
):
    """``run_batch`` at any width from one lane per member to one per
    member and root-level child: every member's arrays, dtypes, order
    and Counters equal its own node-buffer walk."""
    g = make_random(n_u, n_v, p, seed=seed)
    counter, tasks = _bitset_root_tasks(g)
    assume(tasks)
    n = len(tasks)
    lanes = data.draw(
        st.integers(n, n + sum(len(t.cands) for t in tasks)), label="lanes"
    )
    _assert_members_match_per_task(
        g, counter, tasks, prune=prune, nonempty=False, lanes=lanes
    )


# ---------------------------------------------------------------------------
# property: any batch_tasks value is invisible to the simulation
# ---------------------------------------------------------------------------


@st.composite
def small_graphs(draw):
    n_u = draw(st.integers(1, 8))
    n_v = draw(st.integers(1, 7))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n_u - 1), st.integers(0, n_v - 1)),
            max_size=n_u * n_v,
        )
    )
    return BipartiteGraph.from_edges(n_u, n_v, list(edges))


@pytest.mark.slow
@given(
    small_graphs(),
    st.sampled_from(["auto", 1, 2, 3, 17]),
    st.sampled_from(["auto", "sorted", "bitset"]),
)
@settings(max_examples=40, deadline=None)
def test_property_batching_is_invisible(g, batch_tasks, set_backend):
    r_off, e_off = _enumerate(
        g, config=GMBEConfig(batch_tasks="off", set_backend=set_backend)
    )
    r_on, e_on = _enumerate(
        g, config=GMBEConfig(batch_tasks=batch_tasks, set_backend=set_backend)
    )
    assert e_on == e_off
    assert vars(r_on.counters) == vars(r_off.counters)
    assert r_on.sim_time == r_off.sim_time
