"""Tests for the enumeration certification tool."""

import pytest

from repro.core import Biclique, BicliqueCollector, oombea
from repro.graph import random_bipartite, write_edge_list
from repro.verify import (
    VerificationReport,
    check_edge_cover,
    parse_biclique_file,
    verify_enumeration,
)


@pytest.fixture
def graph():
    return random_bipartite(12, 9, 0.35, seed=5)


@pytest.fixture
def truth(graph):
    col = BicliqueCollector()
    oombea(graph, col)
    return col.bicliques


class TestVerifyEnumeration:
    def test_correct_claim_passes(self, graph, truth):
        report = verify_enumeration(graph, truth)
        assert report.ok
        assert "OK" in report.summary()

    def test_missing_detected(self, graph, truth):
        report = verify_enumeration(graph, truth[:-1])
        assert not report.ok and len(report.missing) == 1

    def test_spurious_and_nonmaximal_detected(self, graph, truth):
        bogus = Biclique.make([truth[0].left[0]], [truth[0].right[0]])
        claim = truth + ([bogus] if bogus not in truth else [])
        report = verify_enumeration(graph, claim)
        assert not report.ok
        assert bogus in report.spurious or bogus in report.not_maximal

    def test_non_biclique_detected(self, graph, truth):
        # find a non-edge pair
        for u in range(graph.n_u):
            for v in range(graph.n_v):
                if not graph.has_edge(u, v):
                    fake = Biclique.make([u], [v])
                    report = verify_enumeration(graph, truth + [fake])
                    assert fake in report.not_bicliques
                    return
        pytest.skip("graph is complete")

    def test_duplicates_counted(self, graph, truth):
        report = verify_enumeration(graph, truth + truth[:2])
        assert report.duplicates == 2

    def test_deep_check_off_still_compares_sets(self, graph, truth):
        report = verify_enumeration(graph, truth[:-1], deep_check=False)
        assert not report.ok and report.missing

    def test_all_reference_algorithms(self, graph, truth):
        for ref in ("oombea", "imbea", "mbea"):
            assert verify_enumeration(
                graph, truth, reference_algorithm=ref, deep_check=False
            ).ok

    def test_unknown_reference(self, graph, truth):
        with pytest.raises(ValueError):
            verify_enumeration(graph, truth, reference_algorithm="gpt")


class TestParseBicliqueFile:
    def test_roundtrip_with_writer(self, graph, tmp_path):
        from repro.core import BicliqueWriter

        path = tmp_path / "out.txt"
        with path.open("w") as fh:
            oombea(graph, BicliqueWriter(fh))
        parsed = parse_biclique_file(path)
        col = BicliqueCollector()
        oombea(graph, col)
        assert set(parsed) == col.as_set()

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("# header\n\n1,2 | 3\n")
        assert parse_biclique_file(path) == [Biclique.make([1, 2], [3])]

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_biclique_file(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("a | b\n")
        with pytest.raises(ValueError, match="non-integer"):
            parse_biclique_file(path)


class TestCLI:
    def test_verify_roundtrip(self, graph, tmp_path, capsys):
        from repro.cli import main

        gp = tmp_path / "g.tsv"
        op = tmp_path / "out.txt"
        write_edge_list(graph, gp)
        assert main(["run", str(gp), "--algo", "oombea", "--output", str(op)]) == 0
        assert main(["verify", str(gp), str(op)]) == 0
        out = capsys.readouterr().out
        assert "certified" in out

    def test_verify_fails_on_truncated(self, graph, tmp_path, capsys):
        from repro.cli import main

        gp = tmp_path / "g.tsv"
        op = tmp_path / "out.txt"
        write_edge_list(graph, gp)
        main(["run", str(gp), "--algo", "oombea", "--output", str(op)])
        lines = op.read_text().splitlines()
        op.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["verify", str(gp), str(op)]) == 1


class TestCheckEdgeCover:
    def test_complete_enumeration_covers_every_edge(self, graph, truth):
        assert check_edge_cover(graph, truth) == []

    def test_dropped_biclique_leaves_its_private_edges_uncovered(
        self, paper_graph
    ):
        col = BicliqueCollector()
        oombea(paper_graph, col)
        for i, dropped in enumerate(col.bicliques):
            rest = col.bicliques[:i] + col.bicliques[i + 1:]
            private = sorted(
                (u, v) for u in dropped.left for v in dropped.right
                if not any(u in b.left and v in b.right for b in rest)
            )
            assert check_edge_cover(paper_graph, rest) == private

    def test_no_bicliques_leaves_every_edge_uncovered(self, paper_graph):
        assert check_edge_cover(paper_graph, []) == sorted(paper_graph.edges())

    def test_pairs_that_are_not_edges_are_ignored(self):
        from repro.graph import BipartiteGraph

        g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
        assert check_edge_cover(g, [((0, 1), (0, 1))]) == []
        assert check_edge_cover(g, [((0,), (1,))]) == [(0, 0), (1, 1)]
