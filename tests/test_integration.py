"""End-to-end integration: the full pipeline a downstream user runs.

Generate a realistic workload → enumerate on the simulated GPU →
certify with the independent verifier → read the kernel profile and
its active-SM timeline.
One scenario, every layer.
"""

import pytest

from repro import enumerate_maximal_bicliques, verify_enumeration
from repro.bench.common import scale_device
from repro.core import BicliqueCollector
from repro.gmbe import GMBEConfig, gmbe_gpu
from repro.gpusim import A100, active_sm_curve
from repro.graph import planted_bicliques


@pytest.fixture(scope="module")
def workload():
    graph = planted_bicliques(
        300, 200, [(10, 7), (8, 8)], noise_p=0.01, overlap=0.4, seed=17,
        name="integration",
    )
    collector = BicliqueCollector()
    result = gmbe_gpu(
        graph,
        collector,
        device=scale_device(A100),
        config=GMBEConfig(bound_height=6, bound_size=80),
    )
    return graph, collector, result


class TestPipeline:
    def test_enumeration_certified(self, workload):
        graph, collector, _ = workload
        report = verify_enumeration(graph, collector.bicliques, deep_check=False)
        assert report.ok, report.summary()

    def test_facade_agrees(self, workload):
        graph, collector, _ = workload
        via_facade = enumerate_maximal_bicliques(graph, algorithm="oombea")
        assert set(via_facade) == collector.as_set()

    def test_profile_and_trace(self, workload):
        _, _, result = workload
        assert 0 < result.extras["warp_efficiency"] <= 1
        device = result.extras["device"]
        (recorder,) = result.extras["report"].recorders
        times, counts = active_sm_curve(recorder, n_samples=50)
        assert len(times) == len(counts) == 50
        assert 0 < counts.max() <= device.n_sms

    def test_simulation_metadata_consistent(self, workload):
        _, collector, result = workload
        assert result.n_maximal == collector.count
        assert result.sim_time > 0
        assert result.counters.maximal == result.n_maximal
