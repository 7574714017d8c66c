"""Tests for streaming maintenance of maximal bicliques."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import BipartiteGraph, random_bipartite
from repro.streaming import BicliqueMaintainer, DynamicBipartiteGraph


class TestDynamicGraph:
    def test_from_graph_roundtrip(self, paper_graph):
        d = DynamicBipartiteGraph.from_graph(paper_graph)
        assert d.n_edges == paper_graph.n_edges
        assert set(d.snapshot().edges()) == set(paper_graph.edges())

    def test_insert_delete(self):
        d = DynamicBipartiteGraph(2, 2)
        assert d.insert_edge(0, 1)
        assert not d.insert_edge(0, 1)  # duplicate
        assert d.has_edge(0, 1)
        assert d.delete_edge(0, 1)
        assert not d.delete_edge(0, 1)  # absent
        assert d.n_edges == 0

    def test_grows_vertex_ranges(self):
        d = DynamicBipartiteGraph()
        d.insert_edge(5, 3)
        assert d.n_u == 6 and d.n_v == 4

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            DynamicBipartiteGraph().insert_edge(-1, 0)

    def test_two_hop(self, paper_graph):
        d = DynamicBipartiteGraph.from_graph(paper_graph)
        assert d.two_hop_u(0) == {1, 2, 3}

    def test_update_listeners_fire_on_real_mutations_only(self):
        d = DynamicBipartiteGraph(2, 2)
        events = []
        d.add_update_listener(lambda op, u, v: events.append((op, u, v)))
        d.insert_edge(0, 1)
        d.insert_edge(0, 1)  # duplicate: no event
        d.delete_edge(0, 1)
        d.delete_edge(0, 1)  # absent: no event
        assert events == [("insert", 0, 1), ("delete", 0, 1)]

    def test_remove_update_listener(self):
        d = DynamicBipartiteGraph(2, 2)
        events = []
        fn = lambda op, u, v: events.append(op)  # noqa: E731
        d.add_update_listener(fn)
        d.remove_update_listener(fn)
        d.remove_update_listener(fn)  # double-remove is a no-op
        d.insert_edge(0, 0)
        assert events == []

    def test_induced_subgraph_mapping(self, paper_graph):
        d = DynamicBipartiteGraph.from_graph(paper_graph)
        sub, u_ids, v_ids = d.induced_subgraph([1, 3], [1, 3])
        assert sub.n_u == 2 and sub.n_v == 2
        for i in range(sub.n_u):
            for j in sub.neighbors_u(i):
                assert paper_graph.has_edge(int(u_ids[i]), int(v_ids[int(j)]))

    @pytest.mark.parametrize("seed", range(4))
    def test_array_builds_match_edge_loops(self, seed):
        g = random_bipartite(30, 25, 0.2, seed=seed)
        d = DynamicBipartiteGraph.from_graph(g)
        adj_u = [set() for _ in range(g.n_u)]
        adj_v = [set() for _ in range(g.n_v)]
        for u, v in g.edges():
            adj_u[u].add(v)
            adj_v[v].add(u)
        assert d._adj_u == adj_u and d._adj_v == adj_v
        assert all(type(x) is int for s in d._adj_u + d._adj_v for x in s)
        rng = np.random.default_rng(seed)
        us = rng.choice(g.n_u, 12, replace=False).tolist()
        vs = rng.choice(g.n_v, 10, replace=False).tolist()
        sub, u_ids, v_ids = d.induced_subgraph(us, vs)
        assert u_ids.tolist() == sorted(us) and v_ids.tolist() == sorted(vs)
        assert {(int(u_ids[i]), int(v_ids[j])) for i, j in sub.edges()} == {
            (u, v) for u, v in g.edges() if u in us and v in vs
        }


class TestSnapshotPerVersion:
    def test_same_version_same_object(self, paper_graph):
        d = DynamicBipartiteGraph.from_graph(paper_graph)
        first = d.snapshot()
        assert d.snapshot() is first
        assert first.fingerprint == paper_graph.fingerprint

    def test_real_mutations_give_a_new_snapshot(self):
        d = DynamicBipartiteGraph(2, 2)
        d.insert_edge(0, 1)
        snap = d.snapshot()
        for mutate in (
            lambda: d.insert_edge(1, 1),
            lambda: d.delete_edge(0, 1),
            lambda: d.ensure_vertices(4, 0),  # grows U only
            lambda: d.ensure_vertices(0, 3),  # grows V only
            lambda: d.insert_edge(7, 0),      # grows U, then inserts
        ):
            version = d.version
            mutate()
            assert d.version > version
            new = d.snapshot()
            assert new is not snap
            assert (new.n_u, new.n_v) == (d.n_u, d.n_v)
            snap = new

    def test_no_op_mutations_keep_the_snapshot(self):
        d = DynamicBipartiteGraph(3, 3)
        d.insert_edge(0, 1)
        snap, version = d.snapshot(), d.version
        assert not d.insert_edge(0, 1)
        assert not d.delete_edge(2, 2)
        assert not d.delete_edge(9, 0)
        d.ensure_vertices(2, 2)
        assert d.version == version
        assert d.snapshot() is snap

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_fingerprint_tracks_live_edges(self, seed):
        rng = np.random.default_rng(seed)
        d = DynamicBipartiteGraph(int(rng.integers(0, 4)),
                                  int(rng.integers(0, 4)))
        edges = set()
        for _ in range(30):
            u, v = int(rng.integers(0, 8)), int(rng.integers(0, 6))
            op = int(rng.integers(0, 3))
            if op == 0:
                d.insert_edge(u, v)
                edges.add((u, v))
            elif op == 1:
                d.delete_edge(u, v)
                edges.discard((u, v))
            else:
                d.ensure_vertices(u, v)
            live = BipartiteGraph.from_edges(d.n_u, d.n_v, sorted(edges))
            assert d.snapshot().fingerprint == live.fingerprint

    def test_write_during_build_is_not_cached_as_current(self, monkeypatch):
        d = DynamicBipartiteGraph(3, 3)
        d.insert_edge(0, 0)
        build = BipartiteGraph.from_edges
        writes = [(1, 1)]

        def build_then_write(*args, **kwargs):
            graph = build(*args, **kwargs)
            while writes:
                d.insert_edge(*writes.pop())  # lands mid-snapshot
            return graph

        monkeypatch.setattr(BipartiteGraph, "from_edges",
                            staticmethod(build_then_write))
        stale = d.snapshot()
        assert set(stale.edges()) == {(0, 0)}
        assert set(d.snapshot().edges()) == {(0, 0), (1, 1)}

    def test_concurrent_writers_and_snapshots(self):
        d = DynamicBipartiteGraph(4, 8)
        real = [0] * 4
        failures = []
        done = threading.Event()

        def write(k):
            for _ in range(100):
                for j in range(8):
                    real[k] += d.insert_edge(k, j)
                for j in range(1, 8, 2):
                    real[k] += d.delete_edge(k, j)
            real[k] += d.insert_edge(8 + k, 0)  # grows U

        def read():
            while not done.is_set():
                try:
                    snap = d.snapshot()
                    assert snap.n_edges == len(set(snap.edges()))
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)
                    return

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read) for _ in range(2)]
            writers = [threading.Thread(target=write, args=(k,))
                       for k in range(4)]
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
            done.set()
            for t in readers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in readers + writers)
        assert failures == []
        # every real write bumped the version once; growth bumped it 1-4x
        assert sum(real) + 1 <= d.version <= sum(real) + 4
        edges = {(k, j) for k in range(4) for j in range(0, 8, 2)}
        edges |= {(8 + k, 0) for k in range(4)}
        live = BipartiteGraph.from_edges(12, 8, sorted(edges))
        assert d.snapshot().fingerprint == live.fingerprint


class TestMaintainer:
    def test_initial_set_matches_enumeration(self, paper_graph):
        m = BicliqueMaintainer(paper_graph)
        assert m.bicliques == m.recompute()
        assert len(m) == 6

    def test_insert_edge_repairs(self, paper_graph):
        m = BicliqueMaintainer(paper_graph)
        m.insert_edge(4, 0)  # u5-v1
        assert m.bicliques == m.recompute()

    def test_delete_edge_repairs(self, paper_graph):
        m = BicliqueMaintainer(paper_graph)
        m.delete_edge(1, 1)  # u2-v2, a hub edge
        assert m.bicliques == m.recompute()

    def test_duplicate_and_absent_edges_noop(self, paper_graph):
        m = BicliqueMaintainer(paper_graph)
        before = m.bicliques
        assert not m.insert_edge(0, 0)   # exists
        assert not m.delete_edge(4, 0)   # absent
        assert m.bicliques == before

    def test_empty_start_build_up(self):
        m = BicliqueMaintainer()
        m.insert_edge(0, 0)
        m.insert_edge(1, 0)
        m.insert_edge(1, 1)
        assert m.bicliques == m.recompute()
        assert len(m) == 2  # ({0,1},{0}) and ({1},{0,1})

    def test_delete_to_empty(self):
        g = BipartiteGraph.from_edges(1, 1, [(0, 0)])
        m = BicliqueMaintainer(g)
        assert len(m) == 1
        m.delete_edge(0, 0)
        assert len(m) == 0

    def test_apply_stream(self, paper_graph):
        m = BicliqueMaintainer(paper_graph)
        m.apply([("+", 4, 0), ("-", 1, 2), ("+", 2, 3), ("-", 4, 0)])
        assert m.bicliques == m.recompute()
        assert m.stats["updates"] == 4

    def test_unknown_op(self, paper_graph):
        with pytest.raises(ValueError):
            BicliqueMaintainer(paper_graph).apply([("*", 0, 0)])

    def test_random_update_sequences(self):
        rng = np.random.default_rng(7)
        g = random_bipartite(10, 8, 0.3, seed=1)
        m = BicliqueMaintainer(g)
        for step in range(40):
            u = int(rng.integers(0, 10))
            v = int(rng.integers(0, 8))
            if m.graph.has_edge(u, v):
                m.delete_edge(u, v)
            else:
                m.insert_edge(u, v)
            assert m.bicliques == m.recompute(), f"diverged at step {step}"

    @given(st.integers(0, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_property_random_streams(self, seed):
        rng = np.random.default_rng(seed)
        n_u, n_v = int(rng.integers(2, 8)), int(rng.integers(2, 7))
        g = random_bipartite(n_u, n_v, 0.3, seed=seed % 1000)
        m = BicliqueMaintainer(g)
        for _ in range(10):
            u = int(rng.integers(0, n_u))
            v = int(rng.integers(0, n_v))
            if m.graph.has_edge(u, v):
                m.delete_edge(u, v)
            else:
                m.insert_edge(u, v)
        assert m.bicliques == m.recompute()

    def test_locality_cheaper_than_recompute(self):
        """The point of maintenance: local node work per update is far
        below a full re-enumeration."""
        from repro.core import oombea as _oombea
        from repro.graph import power_law_bipartite

        g = power_law_bipartite(400, 200, 1800, seed=5)
        full_nodes = _oombea(g).counters.nodes_generated
        m = BicliqueMaintainer(g)
        # A fresh low-degree edge should touch a small neighborhood.
        m.insert_edge(399, 199)
        added = m.stats["added"]
        assert m.bicliques == m.recompute()
        assert added < full_nodes  # trivially true; the real check is time-based in benches
