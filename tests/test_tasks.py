"""Tests for per-vertex root-task construction (Alg. 3/4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tasks
from repro.core.bicliques import Counters
from repro.core.bitset import BitsetUniverse, resolve_backend
from repro.core.expand import gamma
from repro.core.localcount import LocalCounter, ragged_gather
from repro.core.tasks import (
    RootTask,
    build_root_task,
    build_root_tasks,
    root_chunks,
)
from repro.datasets import registry
from repro.graph import BipartiteGraph, random_bipartite
from repro.graph.preprocess import prepare

BACKENDS = ("sorted", "bitset", "auto")


def _reference_root_task(graph, counter, v_s, counters=None, *, backend):
    """One root at a time: the per-root builder the bulk one replaces."""
    left = graph.neighbors_v(v_s)
    if len(left) == 0:
        return None
    flat, hop_lengths = ragged_gather(
        graph.u_indptr, graph.u_indices, left.astype(np.int64)
    )
    two_hop = np.unique(flat)
    two_hop = two_hop[two_hop != v_s]
    counter.set_left(left)
    if counters is not None:
        counters.charge_ragged(hop_lengths)
        counters.charge(len(left), 0)  # stamping L_s
    counts, _ = counter.counts(two_hop, counters)
    full = counts == len(left)
    absorbed = two_hop[full]
    if len(absorbed) and int(absorbed[0]) < v_s:
        return None  # a smaller vertex owns this biclique's task
    right = np.concatenate(
        [absorbed[absorbed < v_s], [np.int32(v_s)], absorbed[absorbed >= v_s]]
    ).astype(np.int32)
    later_partial = (counts > 0) & ~full & (two_hop > v_s)
    cands = two_hop[later_partial].astype(np.int32)
    resolved = backend
    universe = None
    if backend == "auto" and len(cands) == 0:
        resolved = "sorted"
    elif backend != "sorted":
        partial_scope = two_hop[counts > 0]
        scope = np.insert(
            partial_scope, np.searchsorted(partial_scope, v_s), v_s
        ).astype(np.int32)
        resolved = resolve_backend(
            backend,
            len(left),
            len(cands),
            len(scope),
            int(graph.degrees_v[scope].sum()),
        )
        if resolved == "bitset":
            universe = BitsetUniverse.build(graph, left, scope)
            if counters is not None:
                counters.charge_bitset(len(scope), universe.n_words)
    return RootTask(
        left=left,
        right=right,
        cands=cands,
        counts=counts[later_partial],
        lineage=(v_s,),
        backend=resolved,
        universe=universe,
    )


def _same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


def _pairs(chunk):
    """``(task, build charges)`` of every root of a built chunk."""
    return [(task, chunk.charges(i)) for i, task in enumerate(chunk.tasks)]


def _assert_matches_reference(graph, roots, built, backend):
    """Every built root equals the one-root reference, field by field."""
    counter = LocalCounter(graph)
    assert len(built) == len(roots)
    for v_s, (task, c) in zip(roots, built):
        ref_c = Counters()
        ref = _reference_root_task(
            graph, counter, int(v_s), ref_c, backend=backend
        )
        assert vars(c) == vars(ref_c), v_s
        assert (task is None) == (ref is None), v_s
        if ref is None:
            continue
        assert task.lineage == ref.lineage and type(task.lineage[0]) is int
        assert task.backend == ref.backend
        for name in ("left", "right", "cands", "counts"):
            assert _same_array(getattr(task, name), getattr(ref, name)), name
        assert (task.universe is None) == (ref.universe is None)
        if ref.universe is not None:
            uni = task.universe
            assert _same_array(uni.left, ref.universe.left)
            assert _same_array(uni.scope, ref.universe.scope)
            assert _same_array(uni.rows, ref.universe.rows)
            assert uni.rows.dtype == np.uint64 and uni.rows.flags.c_contiguous
            assert uni.n_words == ref.universe.n_words


class TestBuildRootTask:
    def test_closure_property(self):
        """Task right side is exactly Γ(N(v_s)) — maximal by construction."""
        g = prepare(random_bipartite(15, 10, 0.35, seed=1)).graph
        for v_s in range(g.n_v):
            task = build_root_task(g, v_s)
            if task is None:
                continue
            assert task.right.tolist() == gamma(g, task.left).tolist()
            assert np.array_equal(task.left, g.neighbors_v(v_s))

    def test_dedup_each_vertex_owns_its_closure(self):
        g = prepare(random_bipartite(15, 10, 0.35, seed=2)).graph
        for v_s in range(g.n_v):
            task = build_root_task(g, v_s)
            if task is not None:
                assert int(task.right[0]) == v_s  # v_s is the smallest in R

    def test_every_closure_owned_exactly_once(self):
        g = prepare(random_bipartite(18, 12, 0.3, seed=3)).graph
        seen = set()
        for v_s in range(g.n_v):
            task = build_root_task(g, v_s)
            if task is not None:
                key = tuple(task.right.tolist())
                assert key not in seen
                seen.add(key)

    def test_candidates_later_order_partial(self):
        g = prepare(random_bipartite(15, 10, 0.4, seed=4)).graph
        for v_s in range(g.n_v):
            task = build_root_task(g, v_s)
            if task is None:
                continue
            for i, vc in enumerate(task.cands):
                assert int(vc) > v_s
                nl = len(np.intersect1d(g.neighbors_v(int(vc)), task.left))
                assert 0 < nl < len(task.left)
                assert task.counts[i] == nl

    def test_isolated_vertex_gives_none(self):
        from repro.graph import BipartiteGraph

        g = BipartiteGraph.from_edges(3, 3, [(0, 0)])
        assert build_root_task(g, 1) is None

    def test_estimates(self):
        g = prepare(random_bipartite(20, 14, 0.4, seed=5)).graph
        for v_s in range(g.n_v):
            task = build_root_task(g, v_s)
            if task is None:
                continue
            h = task.estimated_height()
            assert h == min(len(task.left), len(task.cands))
            assert task.estimated_size() == h * len(task.cands)

    def test_counters_charged(self):
        g = prepare(random_bipartite(10, 8, 0.5, seed=6)).graph
        c = Counters()
        build_root_task(g, 0, c)
        assert c.set_op_work > 0


def _with_isolated_vertices():
    """Isolated V vertices at both ends and inside, one single-U root."""
    edges = [(0, 1), (1, 1), (1, 2), (2, 2), (3, 4), (0, 4), (1, 4)]
    return BipartiteGraph.from_edges(5, 6, edges)


class TestBulkBuilderEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("code", registry.DATASET_ORDER)
    def test_registry_graphs_match_reference(self, code, backend):
        g = prepare(registry.load(code, scale=0.1)).graph
        roots = np.arange(g.n_v)
        built = _pairs(build_root_tasks(g, roots, backend=backend))
        _assert_matches_reference(g, roots, built, backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_roots_without_neighbours_get_zero_charges(self, backend):
        g = _with_isolated_vertices()
        roots = np.arange(g.n_v)
        built = _pairs(build_root_tasks(g, roots, backend=backend))
        _assert_matches_reference(g, roots, built, backend)
        for v in (0, 3, 5):
            task, c = built[v]
            assert task is None
            assert vars(c) == vars(Counters())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chunked_and_masked_builds_match(self, backend, monkeypatch):
        g = prepare(registry.load("GH", scale=0.2)).graph
        monkeypatch.setattr(tasks, "ROOT_CHUNK_BYTES", 4096)
        mask = np.zeros(g.n_v, dtype=bool)
        mask[::3] = True
        chunks = root_chunks(g, 5, mask)
        assert len(chunks) > 1
        roots = np.concatenate(chunks)
        assert roots.tolist() == [v for v in range(5, g.n_v) if mask[v]]
        built = [
            pair for chunk in chunks
            for pair in _pairs(build_root_tasks(g, chunk, backend=backend))
        ]
        _assert_matches_reference(g, roots, built, backend)

    def test_empty_root_list(self):
        g = _with_isolated_vertices()
        chunk = build_root_tasks(g, np.array([], dtype=np.int64))
        assert chunk.tasks == [] and len(chunk.roots) == 0
        assert vars(chunk.charges()) == vars(Counters())

    def test_one_root_wrapper_merges_counters(self):
        g = prepare(random_bipartite(12, 9, 0.4, seed=7)).graph
        total = Counters()
        for v_s in range(g.n_v):
            task = build_root_task(g, v_s, total, backend="auto")
            [bulk] = build_root_tasks(g, [v_s], backend="auto").tasks
            assert (task is None) == (bulk is None)
        expect = build_root_tasks(g, np.arange(g.n_v), backend="auto")
        assert vars(total) == vars(expect.charges())


class TestRootChunks:
    def test_chunks_cover_owned_roots_in_order(self, monkeypatch):
        g = prepare(registry.load("TM", scale=0.3)).graph
        monkeypatch.setattr(tasks, "ROOT_CHUNK_BYTES", 2048)
        chunks = root_chunks(g)
        assert all(len(ch) for ch in chunks)
        assert np.concatenate(chunks).tolist() == list(range(g.n_v))

    def test_chunks_respect_the_byte_budget(self, monkeypatch):
        g = prepare(registry.load("GH", scale=0.2)).graph
        monkeypatch.setattr(tasks, "ROOT_CHUNK_BYTES", 8192)
        deg_u = g.degrees_u
        for chunk in root_chunks(g):
            volume = sum(int(deg_u[g.neighbors_v(v)].sum()) for v in chunk)
            size = volume * tasks._TRIPLE_BYTES + len(chunk) * tasks._ROOT_BYTES
            assert len(chunk) == 1 or size <= tasks.ROOT_CHUNK_BYTES

    def test_hub_root_larger_than_the_budget_is_its_own_chunk(
        self, monkeypatch
    ):
        hub = [(u, v) for u in range(12) for v in range(4)]
        g = BipartiteGraph.from_edges(12, 6, hub + [(0, 4), (1, 5)])
        monkeypatch.setattr(tasks, "ROOT_CHUNK_BYTES", 1)
        assert [ch.tolist() for ch in root_chunks(g)] == [[v] for v in range(6)]

    def test_masks_owning_nothing_or_the_last_vertex(self):
        g = prepare(registry.load("Mti", scale=0.1)).graph
        assert root_chunks(g, 0, np.zeros(g.n_v, dtype=bool)) == []
        last = np.zeros(g.n_v, dtype=bool)
        last[-1] = True
        assert [ch.tolist() for ch in root_chunks(g, 0, last)] == [[g.n_v - 1]]
        assert root_chunks(g, g.n_v) == []


@st.composite
def _graphs_and_cuts(draw):
    kind = draw(st.sampled_from(["random", "single_u", "hub"]))
    n_v = draw(st.integers(1, 14))
    if kind == "single_u":
        n_u = 1
        edges = [(0, v) for v in range(n_v) if draw(st.booleans())]
    else:
        n_u = draw(st.integers(1, 12))
        p = draw(st.floats(0.0, 1.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        adj = rng.random((n_u, n_v)) < p
        if kind == "hub":
            hub_u = draw(st.integers(1, n_u))
            hub_v = draw(st.integers(1, n_v))
            adj[:hub_u, :hub_v] = True
        # isolated V vertices
        for v in draw(st.lists(st.integers(0, n_v - 1), max_size=3)):
            adj[:, v] = False
        edges = [(int(u), int(v)) for u, v in zip(*np.nonzero(adj))]
    g = BipartiteGraph.from_edges(n_u, n_v, edges)
    cuts = sorted(draw(st.sets(st.integers(1, max(n_v - 1, 1)))))
    return g, [c for c in cuts if c < n_v]


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(_graphs_and_cuts(), st.sampled_from(BACKENDS))
def test_property_bulk_build_matches_reference(graph_and_cuts, backend):
    g, cuts = graph_and_cuts
    roots = np.arange(g.n_v)
    built = []
    for chunk in np.split(roots, cuts):
        built.extend(_pairs(build_root_tasks(g, chunk, backend=backend)))
    _assert_matches_reference(g, roots, built, backend)
