"""Tests for the ParMBE parallel baseline."""

import pytest

from repro.core import BicliqueCollector, parmbe, reference_mbe
from repro.graph import power_law_bipartite, random_bipartite


class TestCorrectness:
    def test_vs_oracle(self, paper_graph):
        col = BicliqueCollector()
        res = parmbe(paper_graph, col)
        assert res.n_maximal == 6
        assert col.as_set() == reference_mbe(paper_graph)

    def test_random_graphs(self):
        for seed in range(4):
            g = random_bipartite(12, 9, 0.35, seed=seed)
            col = BicliqueCollector()
            parmbe(g, col)
            assert col.as_set() == reference_mbe(g)

    def test_threads_match_serial(self):
        g = power_law_bipartite(150, 80, 700, seed=2)
        serial = BicliqueCollector()
        threaded = BicliqueCollector()
        r1 = parmbe(g, serial, mode="serial")
        r2 = parmbe(g, threaded, mode="threads", n_threads=4)
        assert serial.as_set() == threaded.as_set()
        assert r1.n_maximal == r2.n_maximal

    def test_unknown_mode_rejected(self, paper_graph):
        with pytest.raises(ValueError):
            parmbe(paper_graph, mode="gpu")

    @staticmethod
    def _assert_same_tasks_as_serial(n_threads):
        g = power_law_bipartite(150, 80, 700, seed=4)
        serial = parmbe(g, mode="serial")
        threaded = parmbe(g, mode="threads", n_threads=n_threads)
        assert threaded.extras["schedule"] == serial.extras["schedule"]
        assert threaded.extras["task_costs"] == serial.extras["task_costs"]
        assert threaded.sim_time == serial.sim_time

    def test_threads_keep_task_order(self):
        self._assert_same_tasks_as_serial(n_threads=4)

    def test_single_thread_keeps_task_order(self):
        self._assert_same_tasks_as_serial(n_threads=1)

    def test_zero_threads_rejected(self, paper_graph):
        with pytest.raises(ValueError, match="n_threads"):
            parmbe(paper_graph, mode="threads", n_threads=0)


class TestScheduling:
    def test_extras_present(self, paper_graph):
        res = parmbe(paper_graph)
        assert "schedule" in res.extras
        assert len(res.extras["task_costs"]) == len(res.extras["task_nodes"])

    def test_more_workers_not_slower(self):
        g = power_law_bipartite(200, 100, 900, seed=1)
        r1 = parmbe(g, n_workers=1)
        r96 = parmbe(g, n_workers=96)
        assert r96.sim_time <= r1.sim_time
        assert r1.n_maximal == r96.n_maximal

    def test_single_worker_makespan_is_total_work(self):
        g = random_bipartite(20, 14, 0.3, seed=5)
        r = parmbe(g, n_workers=1)
        total = sum(r.extras["task_costs"])
        assert r.sim_time == pytest.approx(total)

    def test_speedup_bounded_by_worker_count(self):
        g = power_law_bipartite(200, 100, 900, seed=3)
        r1 = parmbe(g, n_workers=1)
        r8 = parmbe(g, n_workers=8)
        assert r1.sim_time / max(r8.sim_time, 1e-12) <= 8.0 + 1e-9
