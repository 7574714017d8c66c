"""Cross-algorithm correctness tests for the serial baselines."""

import numpy as np
import pytest

from repro.core import (
    BicliqueCollector,
    BicliqueCounter,
    imbea,
    mbea,
    oombea,
    pmbe,
    reference_mbe,
    verify_biclique,
)
from repro.graph import (
    BipartiteGraph,
    crown_graph,
    planted_bicliques,
    power_law_bipartite,
    random_bipartite,
)

ALGOS = [mbea, imbea, pmbe, oombea]


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.__name__)
class TestAgainstOracle:
    def test_paper_graph(self, algo, paper_graph):
        col = BicliqueCollector()
        res = algo(paper_graph, col)
        assert res.n_maximal == 6
        assert col.as_set() == reference_mbe(paper_graph)

    def test_random_graphs(self, algo):
        for seed in range(5):
            g = random_bipartite(12, 10, 0.3, seed=seed)
            col = BicliqueCollector()
            algo(g, col)
            assert col.as_set() == reference_mbe(g), f"seed={seed}"

    def test_crown(self, algo):
        g = crown_graph(7)
        col = BicliqueCollector()
        algo(g, col)
        assert col.as_set() == reference_mbe(g)

    def test_sparse(self, algo):
        g = random_bipartite(15, 12, 0.08, seed=3)
        col = BicliqueCollector()
        algo(g, col)
        assert col.as_set() == reference_mbe(g)

    def test_dense(self, algo):
        g = random_bipartite(9, 8, 0.75, seed=4)
        col = BicliqueCollector()
        algo(g, col)
        assert col.as_set() == reference_mbe(g)

    def test_swapped_side_input(self, algo):
        """|U| < |V| input exercises the side-selection preprocessing."""
        g = random_bipartite(7, 13, 0.3, seed=6)
        col = BicliqueCollector()
        algo(g, col)
        assert col.as_set() == reference_mbe(g)

    def test_empty(self, algo):
        g = BipartiteGraph.from_edges(3, 4, [])
        assert algo(g).n_maximal == 0

    def test_single_edge(self, algo):
        g = BipartiteGraph.from_edges(2, 2, [(1, 1)])
        col = BicliqueCollector()
        algo(g, col)
        assert col.bicliques == [col.bicliques[0]]
        assert col.bicliques[0].left == (1,) and col.bicliques[0].right == (1,)


class TestCrossAlgorithmAgreement:
    def test_larger_graphs_agree(self):
        for maker in (
            lambda: power_law_bipartite(300, 150, 1400, seed=1),
            lambda: planted_bicliques(60, 40, [(8, 6), (7, 5)], noise_p=0.05, overlap=0.4, seed=2),
            lambda: random_bipartite(80, 50, 0.12, seed=3),
        ):
            g = maker()
            counts = {a.__name__: a(g).n_maximal for a in ALGOS}
            assert len(set(counts.values())) == 1, counts

    def test_outputs_are_maximal_bicliques(self):
        g = random_bipartite(25, 18, 0.25, seed=8)
        col = BicliqueCollector()
        oombea(g, col)
        for b in col.bicliques:
            is_bc, is_max = verify_biclique(g, b.left, b.right)
            assert is_bc and is_max

    def test_no_duplicates(self):
        g = power_law_bipartite(200, 120, 900, seed=4)
        col = BicliqueCollector()
        res = imbea(g, col)
        assert len(col.bicliques) == len(col.as_set()) == res.n_maximal


class TestPerformanceLadder:
    """The Fig. 6 ordering: each refinement explores fewer nodes."""

    @pytest.fixture(scope="class")
    def results(self):
        from repro.graph import block_overlap_bipartite

        g = block_overlap_bipartite(
            200, 80, 10, memberships_u=1.8, memberships_v=1.5, intra_p=0.35, seed=6
        )
        return {a.__name__: a(g) for a in ALGOS}

    def test_same_counts(self, results):
        assert len({r.n_maximal for r in results.values()}) == 1

    def test_mbea_most_nodes(self, results):
        worst = results["mbea"].counters.nodes_generated
        for name in ("imbea", "pmbe", "oombea"):
            assert results[name].counters.nodes_generated <= worst

    def test_oombea_least_nodes(self, results):
        best = results["oombea"].counters.nodes_generated
        assert best <= results["imbea"].counters.nodes_generated
        assert best <= results["mbea"].counters.nodes_generated


class TestSinks:
    def test_counter_sink(self, paper_graph):
        sink = BicliqueCounter()
        mbea(paper_graph, sink)
        assert sink.count == 6
        assert sink.max_left == 4 and sink.max_right == 4

    def test_writer_sink(self, paper_graph, tmp_path):
        from repro.core import BicliqueWriter

        path = tmp_path / "out.txt"
        with path.open("w") as fh:
            sink = BicliqueWriter(fh)
            oombea(paper_graph, sink)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        assert all("|" in line for line in lines)

    def test_swapped_graph_reports_input_labels(self):
        g = random_bipartite(6, 9, 0.4, seed=2)  # will be swapped
        col_in = BicliqueCollector()
        oombea(g, col_in)
        for b in col_in.bicliques:
            is_bc, is_max = verify_biclique(g, b.left, b.right)
            assert is_bc and is_max
