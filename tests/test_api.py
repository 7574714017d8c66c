"""Tests for the high-level convenience API."""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro import as_bipartite_graph, enumerate_maximal_bicliques
from repro.core import Biclique, reference_mbe
from repro.graph import BipartiteGraph

MATRIX = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=np.int8)


class TestCoercion:
    def test_graph_passthrough(self, paper_graph):
        assert as_bipartite_graph(paper_graph) is paper_graph

    def test_numpy(self):
        g = as_bipartite_graph(MATRIX)
        assert (g.n_u, g.n_v, g.n_edges) == (3, 3, 7)

    def test_scipy(self):
        g = as_bipartite_graph(csr_matrix(MATRIX))
        assert g.n_edges == 7

    def test_networkx(self):
        nxg = nx.Graph()
        nxg.add_node("u0", bipartite=0)
        nxg.add_node("v0", bipartite=1)
        nxg.add_edge("u0", "v0")
        assert as_bipartite_graph(nxg).n_edges == 1

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_bipartite_graph([1, 2, 3])


class TestEnumerate:
    def test_matches_oracle_all_algorithms(self):
        g = BipartiteGraph.from_biadjacency(MATRIX)
        ref = sorted(reference_mbe(g))
        for algo in ("gmbe", "gmbe-host", "mbea", "imbea", "pmbe", "oombea", "parmbe"):
            assert enumerate_maximal_bicliques(MATRIX, algorithm=algo) == ref

    def test_size_filter(self):
        out = enumerate_maximal_bicliques(MATRIX, min_left=2, min_right=2)
        assert out == [Biclique.make([0, 1], [0, 1]), Biclique.make([1, 2], [1, 2])]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            enumerate_maximal_bicliques(MATRIX, algorithm="magic")

    def test_custom_config(self):
        from repro.gmbe import GMBEConfig

        out = enumerate_maximal_bicliques(
            MATRIX, config=GMBEConfig(prune=False, bound_height=1, bound_size=1)
        )
        assert len(out) == 4

    def test_deterministic_order(self):
        a = enumerate_maximal_bicliques(MATRIX)
        b = enumerate_maximal_bicliques(MATRIX, algorithm="mbea")
        assert a == b == sorted(a)

    def test_tuned_sentinel_miss_falls_back(self, tmp_path):
        out = enumerate_maximal_bicliques(
            MATRIX, config="tuned", tuning_store=tmp_path
        )
        assert out == enumerate_maximal_bicliques(MATRIX)

    def test_tuned_sentinel_tune_on_miss_persists(self, tmp_path):
        from repro.tuning import TunedConfigStore

        store = TunedConfigStore(tmp_path)
        out = enumerate_maximal_bicliques(
            MATRIX, config="tuned", tuning_store=store, tune_on_miss=True
        )
        assert out == enumerate_maximal_bicliques(MATRIX)
        assert len(store) == 1
        # The persisted entry now serves without tuning again.
        again = enumerate_maximal_bicliques(
            MATRIX, config="tuned", tuning_store=store
        )
        assert again == out

    def test_tuned_sentinel_ignored_for_cpu_baselines(self, tmp_path):
        out = enumerate_maximal_bicliques(
            MATRIX, algorithm="oombea", config="tuned",
            tuning_store=tmp_path,
        )
        assert out == enumerate_maximal_bicliques(MATRIX)

    def test_bad_config_string_rejected(self):
        with pytest.raises(ValueError, match="tuned"):
            enumerate_maximal_bicliques(MATRIX, config="fastest")

    @pytest.mark.parametrize("algorithm", ["gmbe", "gmbe-host"])
    def test_mapping_config_accepted(self, algorithm):
        from repro.gmbe import GMBEConfig

        fields = {"batch_tasks": "off", "prune": False}
        out = enumerate_maximal_bicliques(
            MATRIX, algorithm=algorithm, config=fields
        )
        assert out == enumerate_maximal_bicliques(
            MATRIX, algorithm=algorithm, config=GMBEConfig(**fields)
        )
        assert out == enumerate_maximal_bicliques(MATRIX)

    def test_mapping_config_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="batch_taks"):
            enumerate_maximal_bicliques(MATRIX, config={"batch_taks": "off"})

    @pytest.mark.parametrize("bad", [5, 2.5, ["batch_tasks"], object()])
    def test_non_config_value_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            enumerate_maximal_bicliques(MATRIX, config=bad)


class TestSizeFilterValidation:
    def test_negative_values_rejected_with_value_in_message(self):
        with pytest.raises(ValueError, match="min_left.*-3"):
            enumerate_maximal_bicliques(MATRIX, min_left=-3)
        with pytest.raises(ValueError, match="min_right.*-1"):
            enumerate_maximal_bicliques(MATRIX, min_right=-1)

    def test_non_integral_values_rejected(self):
        with pytest.raises(ValueError, match="min_left.*1.5"):
            enumerate_maximal_bicliques(MATRIX, min_left=1.5)
        with pytest.raises(ValueError, match="min_right.*'2'"):
            enumerate_maximal_bicliques(MATRIX, min_right="2")

    def test_bool_rejected_despite_being_int_subclass(self):
        with pytest.raises(ValueError, match="min_left.*True"):
            enumerate_maximal_bicliques(MATRIX, min_left=True)

    def test_numpy_integers_accepted(self):
        out = enumerate_maximal_bicliques(
            MATRIX, min_left=np.int64(2), min_right=np.int32(2)
        )
        assert out == enumerate_maximal_bicliques(MATRIX, min_left=2, min_right=2)

    def test_zero_is_a_valid_no_op_filter(self):
        assert enumerate_maximal_bicliques(
            MATRIX, min_left=0, min_right=0
        ) == enumerate_maximal_bicliques(MATRIX)


PACKAGES = [
    "repro", "repro.bench", "repro.checkpoint",
    "repro.core", "repro.datasets", "repro.gmbe", "repro.gpusim",
    "repro.graph", "repro.parallel", "repro.service", "repro.sharding",
    "repro.store", "repro.streaming", "repro.telemetry", "repro.tuning",
]


class TestPackageExports:
    """Package inits load their exports on first access (PEP 562)."""

    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_public_name_imports(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            scope = {}
            exec(f"from {package} import {name}", scope)
            assert scope[name] is getattr(module, name)
            assert name in dir(module)

    def test_algorithms_resolve_to_functions_not_submodules(self):
        import repro.core.mbea  # binds the submodule name on the package
        from repro import mbea
        from repro.core import mbea as core_mbea

        assert callable(mbea) and mbea is core_mbea

    def test_unknown_name_raises_attribute_error(self):
        import repro

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name

    def test_shard_worker_import_stays_light(self):
        """A spawned shard worker imports the runner, not the API."""
        code = (
            "import sys, repro.sharding.runner\n"
            "print(sorted(m for m in ('repro.api', 'repro.service', "
            "'repro.sharding.coordinator', 'repro.tuning') "
            "if m in sys.modules))"
        )
        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        ).stdout
        assert out.strip() == "[]"
