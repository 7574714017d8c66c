"""Tests for the node-reuse NodeBuffer (paper §4.1, Fig. 5)."""

import numpy as np
import pytest

from repro.core.bicliques import Counters
from repro.core.localcount import LocalCounter
from repro.core.tasks import build_root_task
from repro.gmbe.node_buffer import INF_DEPTH, NodeBuffer
from repro.graph import BipartiteGraph, random_bipartite
from repro.graph.preprocess import prepare


def make_buffer(graph, v_s, *, prune=True):
    lc = LocalCounter(graph)
    task = build_root_task(graph, v_s)
    assert task is not None
    buf = NodeBuffer(
        graph, lc, task.left, task.right, task.cands, task.counts, prune=prune
    )
    return buf, task


class TestFigure5Walkthrough:
    """Reproduce the paper's Fig. 5 on G0's subtree rooted at node r."""

    @pytest.fixture
    def buf(self, paper_graph):
        # Node r: L = {u1,u2,u3,u4}, R = {v2}, C = {v3, v4}; reached by
        # traversing v2 at the root.  Indices are 0-based.
        lc = LocalCounter(paper_graph)
        left = np.array([0, 1, 2, 3], dtype=np.int32)
        right = np.array([1], dtype=np.int32)
        cands = np.array([2, 3], dtype=np.int32)
        counts = np.array([3, 2], dtype=np.int64)  # |NL(v3)|=3, |NL(v4)|=2
        return NodeBuffer(paper_graph, lc, left, right, cands, counts)

    def test_initial_state(self, buf):
        assert buf.depth == 0
        assert buf.current_left().tolist() == [0, 1, 2, 3]
        assert buf.current_right().tolist() == [1]
        assert buf.nls.tolist() == [3, 2]

    def test_push_v3_matches_figure(self, buf):
        out = buf.push(0)  # traverse v3 -> node s
        assert out.maximal
        assert buf.current_left().tolist() == [0, 1, 3]   # {u1,u2,u4}
        assert buf.current_right().tolist() == [1, 2]     # {v2,v3}
        # Fig. 5: |NL(v3)| stays 3, |NL(v4)| stays 2 at node s
        assert buf.nls.tolist() == [3, 2]
        assert buf.depth == 1

    def test_push_v4_from_s_reaches_t(self, buf):
        buf.push(0)
        out = buf.push(1)  # traverse v4 -> node t
        assert out.maximal
        assert buf.current_left().tolist() == [1, 3]       # {u2,u4}
        assert buf.current_right().tolist() == [1, 2, 3]   # {v2,v3,v4}

    def test_pop_restores_parent(self, buf):
        buf.push(0)
        buf.push(1)
        buf.pop()
        assert buf.current_left().tolist() == [0, 1, 3]
        assert buf.current_right().tolist() == [1, 2]
        buf.pop()
        assert buf.current_left().tolist() == [0, 1, 2, 3]
        assert buf.current_right().tolist() == [1]
        assert buf.nls.tolist() == [3, 2]

    def test_prune_kills_t1(self, buf):
        """Fig. 5's punchline: after popping node s, v4's unchanged local
        neighborhood size (2) prunes node t1 at node r."""
        buf.push(0)   # node s; |NL(v4)| unchanged at 2 -> pending prune
        buf.pop()     # back at r: v3 excluded, v4 pruned
        assert buf.next_candidate() is None
        assert buf.counters.pruned == 1

    def test_without_prune_t1_visited_nonmaximal(self, paper_graph):
        lc = LocalCounter(paper_graph)
        buf = NodeBuffer(
            paper_graph,
            lc,
            np.array([0, 1, 2, 3], dtype=np.int32),
            np.array([1], dtype=np.int32),
            np.array([2, 3], dtype=np.int32),
            np.array([3, 2], dtype=np.int64),
            prune=False,
        )
        buf.push(0)
        buf.pop()
        idx = buf.next_candidate()
        assert idx == 1  # v4 still a candidate
        out = buf.push(idx)
        assert not out.maximal  # node t1 is non-maximal


class TestInvariants:
    def test_push_pop_roundtrip_preserves_state(self):
        g = prepare(random_bipartite(20, 14, 0.35, seed=1)).graph
        for v_s in range(g.n_v):
            lc = LocalCounter(g)
            task = build_root_task(g, v_s)
            if task is None or len(task.cands) == 0:
                continue
            buf = NodeBuffer(g, lc, task.left, task.right, task.cands, task.counts)
            before = (
                buf.depth_l.copy(),
                buf.cand_state.copy(),
                buf.nls.copy(),
                buf.current_right().tolist(),
            )
            idx = buf.next_candidate()
            buf.push(idx)
            buf.pop()
            assert np.array_equal(buf.depth_l, before[0])
            # the traversed candidate is now excluded; everything else equal
            diff = np.nonzero(buf.cand_state != before[1])[0]
            expect_changed = {idx}
            if buf.counters.pruned:
                assert set(diff.tolist()) >= expect_changed
            else:
                assert set(diff.tolist()) == expect_changed
            assert np.array_equal(buf.nls, before[2])
            assert buf.current_right().tolist() == before[3]

    def test_push_non_candidate_rejected(self, paper_graph):
        buf, _ = make_buffer(prepare(paper_graph).graph, 0)
        if buf.next_candidate() is None:
            pytest.skip("no candidates")
        idx = buf.next_candidate()
        buf.push(idx)
        with pytest.raises(ValueError):
            buf.push(idx)

    def test_pop_from_root_raises(self, paper_graph):
        buf, _ = make_buffer(prepare(paper_graph).graph, 0)
        with pytest.raises(IndexError):
            buf.pop()

    def test_memory_words_matches_bound(self):
        g = prepare(random_bipartite(30, 20, 0.3, seed=2)).graph
        lc = LocalCounter(g)
        for v_s in range(g.n_v):
            task = build_root_task(g, v_s)
            if task is None:
                continue
            buf = NodeBuffer(g, lc, task.left, task.right, task.cands, task.counts)
            assert buf.memory_words() == 3 * len(task.left) + 3 * len(task.cands)

    def test_right_size_tracks_current_right(self):
        g = prepare(random_bipartite(25, 16, 0.4, seed=3)).graph
        buf, task = make_buffer(g, 0)
        # walk a few pushes and check _right_size consistency
        steps = 0
        while steps < 10:
            idx = buf.next_candidate()
            if idx is None:
                if buf.depth == 0:
                    break
                buf.pop()
                continue
            out = buf.push(idx)
            assert out.right_size == len(buf.current_right())
            if not out.maximal:
                buf.pop()
            steps += 1
