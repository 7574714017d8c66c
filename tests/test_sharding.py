"""Sharded enumeration: ownership, merge, resume, and integration.

The load-bearing invariant: for ANY shard count and ANY graph, the
stream-merged union of per-shard results is bit-identical to the
single-node enumeration, with ownership sets pairwise disjoint — zero
duplicates by construction, never by deduplication.
"""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import enumerate_maximal_bicliques
from repro.core import BicliqueCollector
from repro.datasets.registry import load
from repro.gmbe import ClusterSpec, GMBEConfig, gmbe_gpu
from repro.gpusim.faults import FaultPlan
from repro.graph import BipartiteGraph, random_bipartite
from repro.sharding import (
    BALANCERS,
    ShardCoordinator,
    ShardMergeError,
    ShardPlan,
    ShardResult,
    merge_shard_results,
    root_weights,
    run_shard_task,
)
from repro.sharding.runner import shard_checkpoint_path

CFG = GMBEConfig()


def _reference(graph, config=CFG):
    col = BicliqueCollector()
    gmbe_gpu(graph, col, config=config)
    return sorted(col.bicliques)


@pytest.fixture(scope="module")
def graph():
    return random_bipartite(40, 32, 0.18, seed=11)


@pytest.fixture(scope="module")
def reference(graph):
    return _reference(graph)


# ----------------------------------------------------------------------
# ShardPlan
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_ownership_is_a_partition(self, graph):
        plan = ShardPlan.build(graph, 4)
        masks = [plan.mask(i) for i in range(4)]
        # pairwise disjoint and jointly complete over the prepared V space
        stacked = np.stack(masks)
        assert (stacked.sum(axis=0) == 1).all()
        assert sum(len(plan.owned(i)) for i in range(4)) == plan.n_roots

    @pytest.mark.parametrize("balancer", BALANCERS)
    def test_every_balancer_partitions(self, graph, balancer):
        plan = ShardPlan.build(graph, 3, balancer=balancer)
        stacked = np.stack([plan.mask(i) for i in range(3)])
        assert (stacked.sum(axis=0) == 1).all()

    def test_greedy_balances_better_than_round_robin(self):
        # A skewed graph: hub vertices dominate; LPT must not lump them.
        g = load("TM")
        greedy = ShardPlan.build(g, 4, balancer="greedy")
        rr = ShardPlan.build(g, 4, balancer="round-robin")
        assert greedy.imbalance() <= rr.imbalance() + 1e-9

    @pytest.mark.parametrize(
        "bad", [0, -1, True, 2.0, "4"], ids=["zero", "neg", "bool", "float", "str"]
    )
    def test_bad_n_shards_rejected(self, graph, bad):
        with pytest.raises(ValueError, match="n_shards"):
            ShardPlan.build(graph, bad)

    def test_unknown_balancer_rejected(self, graph):
        with pytest.raises(ValueError, match="balancer"):
            ShardPlan.build(graph, 2, balancer="optimal")

    def test_bad_shard_id_rejected(self, graph):
        plan = ShardPlan.build(graph, 2)
        for bad in (-1, 2, True, "0"):
            with pytest.raises(ValueError, match="shard_id"):
                plan.mask(bad)

    def test_signature_covers_partition_identity(self, graph):
        a = ShardPlan.build(graph, 4)
        assert a.signature() == ShardPlan.build(graph, 4).signature()
        assert a.signature() != ShardPlan.build(graph, 5).signature()
        assert (
            a.signature()
            != ShardPlan.build(graph, 4, balancer="round-robin").signature()
        )
        other = random_bipartite(40, 32, 0.18, seed=12)
        assert a.signature() != ShardPlan.build(other, 4).signature()

    def test_validate_against_wrong_graph(self, graph):
        plan = ShardPlan.build(graph, 2)
        other = random_bipartite(10, 10, 0.3, seed=5)
        with pytest.raises(ValueError, match="rebuild the plan"):
            plan.validate_against(other)

    def test_weights_are_positive(self, graph):
        from repro.graph.preprocess import prepare

        w = root_weights(prepare(graph, order="degree").graph)
        assert (w > 0).all()

    def test_more_shards_than_roots_leaves_some_empty(self):
        g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
        plan = ShardPlan.build(g, 8)
        sizes = [len(plan.owned(i)) for i in range(8)]
        assert sum(sizes) == plan.n_roots
        assert 0 in sizes


# ----------------------------------------------------------------------
# Union invariant
# ----------------------------------------------------------------------
class TestUnionInvariant:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_union_bit_identical(self, graph, reference, n_shards):
        report = ShardCoordinator(graph, n_shards).run()
        assert report.bicliques == reference
        assert len(report.bicliques) == len(set(report.bicliques))

    @pytest.mark.parametrize("balancer", BALANCERS)
    def test_union_invariant_per_balancer(self, graph, reference, balancer):
        report = ShardCoordinator(graph, 3, balancer=balancer).run()
        assert report.bicliques == reference

    @pytest.mark.parametrize("order", ["degree", "degeneracy", "none"])
    def test_union_invariant_per_order(self, graph, reference, order):
        cfg = CFG.with_(order=order)
        report = ShardCoordinator(graph, 4, config=cfg).run()
        assert report.bicliques == sorted(_reference(graph, cfg))
        assert report.bicliques == reference  # order never changes the set

    def test_counters_aggregate_exactly(self, graph):
        col = BicliqueCollector()
        single = gmbe_gpu(graph, col, config=CFG)
        report = ShardCoordinator(graph, 4).run()
        # Work counters are partitioned with the roots: shard totals
        # must reconstruct the single-run totals exactly.
        assert report.counters.maximal == single.counters.maximal
        assert report.counters.non_maximal == single.counters.non_maximal
        assert report.counters.nodes_generated == single.counters.nodes_generated

    def test_runner_pins_plan_order(self, graph, monkeypatch):
        import repro.sharding.runner as runner_mod

        orders = []

        def spy(*args, config, **kwargs):
            orders.append(config.order)
            return gmbe_gpu(*args, config=config, **kwargs)

        monkeypatch.setattr(runner_mod, "gmbe_gpu", spy)
        plan = ShardPlan.build(graph, 2, order="degree")
        run_shard_task(graph, plan, 0, config=CFG.with_(order="none"))
        assert orders == ["degree"]

    def test_cluster_placement_same_results(self, graph, reference):
        cluster = ClusterSpec(n_nodes=2, gpus_per_node=1)
        report = ShardCoordinator(graph, 4, cluster=cluster).run()
        assert report.bicliques == reference
        # 4 shards round-robin onto 2 GPUs, serial per GPU
        assert report.placement == [0, 1, 0, 1]
        per = report.extras["per_shard_seconds"]
        expect = max(per[0] + per[2], per[1] + per[3])
        assert report.sim_time == pytest.approx(expect)


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
class TestMerge:
    def _result(self, shard_id, bicliques):
        from repro.core.bicliques import Counters

        return ShardResult(
            shard_id=shard_id,
            n_shards=2,
            bicliques=sorted(bicliques),
            counters=Counters(),
            sim_time=0.0,
            owned_roots=len(bicliques),
        )

    def test_merge_is_ordered_union(self):
        from repro.core.bicliques import Biclique

        b1 = Biclique.make([0], [0])
        b2 = Biclique.make([1], [1])
        b3 = Biclique.make([0, 1], [2])
        merged = merge_shard_results(
            [self._result(0, [b3, b1]), self._result(1, [b2])]
        )
        assert merged == sorted([b1, b2, b3])

    def test_duplicate_across_shards_refused(self):
        from repro.core.bicliques import Biclique

        dup = Biclique.make([0], [0])
        with pytest.raises(ShardMergeError, match="shards 0 and 1"):
            merge_shard_results(
                [self._result(0, [dup]), self._result(1, [dup])]
            )


# ----------------------------------------------------------------------
# Crash / resume
# ----------------------------------------------------------------------
class TestCrashResume:
    def test_crash_one_shard_resumes_alone(self, graph, reference, tmp_path):
        ckpt_dir = str(tmp_path / "shards")
        crashed = 1
        first = ShardCoordinator(
            graph, 4,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=1,
            halt_after_tasks={crashed: 2},
        ).run()
        assert first.halted
        assert first.shards[crashed].halted
        # only the crashed shard left a snapshot behind
        leftovers = [f for f in os.listdir(ckpt_dir) if f.endswith(".ckpt")]
        assert len(leftovers) == 1
        assert f"{crashed:04d}of4" in leftovers[0]

        second = ShardCoordinator(
            graph, 4, checkpoint_dir=ckpt_dir, checkpoint_every=1
        ).run()
        assert not second.halted
        assert second.extras["resumed_shards"] == [crashed]
        assert second.bicliques == reference
        assert len(second.bicliques) == len(set(second.bicliques))
        # clean completion erases the snapshot
        assert not any(
            f.endswith(".ckpt") for f in os.listdir(ckpt_dir)
        )

    def test_faulty_shard_still_exact(self, graph, reference):
        plans = {
            2: FaultPlan(7, p_sm_crash=0.05, p_warp_hang=0.05,
                         p_queue_drop=0.05, p_mem_pressure=0.05),
        }
        report = ShardCoordinator(graph, 4, fault_plans=plans).run()
        assert report.bicliques == reference
        assert report.shards[2].extras.get("tasks_requeued", 0) >= 0

    @pytest.mark.parametrize("name, mapping, pool", [
        ("fault_plans", {5: FaultPlan(1, p_sm_crash=0.1)}, "thread"),
        ("fault_plans", {-1: FaultPlan(1, p_sm_crash=0.1)}, "thread"),
        ("fault_plans", {"0": FaultPlan(1, p_sm_crash=0.1)}, "thread"),
        ("halt_after_tasks", {5: 1}, "thread"),
        ("chaos_kills", {7: (1, 0.0)}, "process"),
    ], ids=["fault-5", "fault-neg", "fault-str", "halt-5", "chaos-7"])
    def test_per_shard_keys_must_name_a_shard(self, graph, name, mapping,
                                              pool):
        (key,) = mapping
        with pytest.raises(
            ValueError, match=rf"{name} key {re.escape(repr(key))}.*n_shards=2"
        ):
            ShardCoordinator(graph, 2, pool=pool, **{name: mapping})

    @pytest.mark.parametrize(
        "name", ["n_gpus_per_shard", "checkpoint_every", "max_shard_attempts"]
    )
    @pytest.mark.parametrize("value", [0, -1, 1.5, "2", True])
    def test_per_shard_integers_are_checked_at_construction(
        self, graph, name, value
    ):
        with pytest.raises(ValueError, match=name):
            ShardCoordinator(graph, 2, pool="process", **{name: value})

    def test_checkpoints_are_plan_scoped(self, graph, tmp_path):
        plan4 = ShardPlan.build(graph, 4)
        plan2 = ShardPlan.build(graph, 2)
        assert shard_checkpoint_path(str(tmp_path), plan4, 0) != (
            shard_checkpoint_path(str(tmp_path), plan2, 0)
        )

    def test_worker_crash_carries_shard_label(self, graph, monkeypatch):
        import repro.sharding.coordinator as coord_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic shard failure")

        monkeypatch.setattr(coord_mod, "run_shard_task", boom)
        with pytest.raises(RuntimeError, match="synthetic") as excinfo:
            ShardCoordinator(graph, 3).run()
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("shard" in n for n in notes)


# ----------------------------------------------------------------------
# Integration: api / service / CLI / telemetry
# ----------------------------------------------------------------------
class TestIntegration:
    def test_api_shards_equal_single(self, graph):
        base = enumerate_maximal_bicliques(graph)
        assert enumerate_maximal_bicliques(graph, shards=3) == base

    def test_api_validates_shards(self, graph):
        for bad in (0, -2, True, 1.5):
            with pytest.raises(ValueError, match="shards"):
                enumerate_maximal_bicliques(graph, shards=bad)
        with pytest.raises(ValueError, match="gmbe"):
            enumerate_maximal_bicliques(graph, algorithm="mbea", shards=2)
        with pytest.raises(ValueError, match="fault_plan"):
            enumerate_maximal_bicliques(
                graph, shards=2, fault_plan=FaultPlan(1, p_sm_crash=0.1)
            )

    def test_job_validates_shards(self, graph):
        from repro.service import Job

        with pytest.raises(ValueError, match="shards"):
            Job(graph=graph, shards=0)
        with pytest.raises(ValueError, match="gmbe"):
            Job(graph=graph, algorithm="mbea", shards=2)

    def test_broker_shards_share_logical_cache_key(self, graph):
        from repro.service import ServiceClient

        with ServiceClient(n_workers=2) as client:
            sharded = client.submit(graph=graph, algorithm="gmbe", shards=2)
            plain = client.submit(graph=graph, algorithm="gmbe")
            assert sharded.ok and plain.ok
            assert tuple(sharded.bicliques) == tuple(plain.bicliques)
            assert plain.cache_hit
            snap = client.metrics_snapshot()
            assert snap["service.jobs.sharded"] == 1

    def test_broker_auto_shard_policy(self, graph):
        from repro.service import ServiceClient

        with ServiceClient(
            n_workers=2, auto_shard_over_edges=0, auto_shard_count=2
        ) as client:
            res = client.submit(graph=graph, algorithm="gmbe")
            assert res.ok
            assert client.metrics_snapshot()["service.jobs.sharded"] == 1

    def test_cli_run_shards(self, capsys):
        from repro.cli import main

        assert main(["run", "Mti", "--shards", "4"]) == 0
        sharded = capsys.readouterr().out
        assert "x4 shards" in sharded
        assert main(["run", "Mti"]) == 0
        plain = capsys.readouterr().out
        count = lambda out: out.splitlines()[0].split(" maximal")[0]
        assert count(sharded) == count(plain)

    def test_cli_shards_rejects_fault_flags(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "Mti", "--shards", "2", "--fault-sm-crash", "0.1"])
        with pytest.raises(SystemExit):
            main(["run", "Mti", "--shards", "2", "--algo", "mbea"])

    def test_telemetry_shard_spans_nest_under_job(self, graph):
        from repro.telemetry import RingSink, Telemetry

        sink = RingSink()
        telemetry = Telemetry(sinks=[sink])
        ShardCoordinator(graph, 2, telemetry=telemetry).run()
        telemetry.flush()
        spans = [r for r in sink.records() if r.get("type") == "span"]
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        assert "shard.job" in by_name
        assert "shard.plan" in by_name and "shard.merge" in by_name
        assert len(by_name.get("shard.run", [])) == 2
        job = by_name["shard.job"][0]
        for child in by_name["shard.run"]:
            # shard.run executes on a worker thread but still nests
            # under the coordinator's shard.job trace
            assert child["trace_id"] == job["trace_id"]
        counters = telemetry.registry.snapshot()
        assert counters["shard.jobs"] == 1
        assert counters["shard.runs"] == 2

    def test_disabled_telemetry_stays_out_of_ambient_scope(
        self, graph, reference
    ):
        """A disabled ``telemetry=`` switches telemetry off for the whole
        job: neither the shard runs nor their kernels fall back to an
        enabled ambient telemetry."""
        from repro.telemetry import Telemetry, use_telemetry

        ambient = Telemetry()
        with use_telemetry(ambient):
            report = ShardCoordinator(
                graph, 2, telemetry=Telemetry(enabled=False)
            ).run()
        assert report.bicliques == reference
        assert ambient.registry.snapshot() == {}

    def test_thread_and_process_dispatch_agree(self):
        """Both pools run the same per-shard entry: same answer, same
        counters, and the same job → run → kernel span tree."""
        from dataclasses import asdict

        from repro.telemetry import RingSink, Telemetry

        g = random_bipartite(20, 16, 0.25, seed=5)
        runs = {}
        for pool in ("thread", "process"):
            sink = RingSink(capacity=4096)
            telemetry = Telemetry(sinks=[sink])
            report = ShardCoordinator(
                g, 2, pool=pool, telemetry=telemetry
            ).run()
            telemetry.flush()
            spans = [r for r in sink.records() if r.get("type") == "span"]
            runs[pool] = (report, spans, telemetry.registry.snapshot())

        (thread, t_spans, t_reg), (proc, p_spans, p_reg) = (
            runs["thread"], runs["process"]
        )
        assert thread.bicliques == proc.bicliques
        assert asdict(thread.counters) == asdict(proc.counters)
        for key in ("per_shard_seconds", "resumed_shards"):
            assert thread.extras[key] == proc.extras[key]

        def tree(spans):
            (job,) = [s for s in spans if s["name"] == "shard.job"]
            shard_runs = sorted(
                (s for s in spans if s["name"] == "shard.run"),
                key=lambda s: s["attrs"]["shard"],
            )
            assert [s["parent_id"] for s in shard_runs] == (
                [job["span_id"]] * 2
            )
            for run in shard_runs:
                kernels = [
                    s for s in spans if s["name"] == "sim.kernel"
                    and s["parent_id"] == run["span_id"]
                ]
                assert len(kernels) == 1
            return [
                (s["attrs"]["shard"], s["attrs"]["n_maximal"])
                for s in shard_runs
            ]

        assert tree(t_spans) == tree(p_spans) == [
            (0, thread.shards[0].n_maximal), (1, thread.shards[1].n_maximal)
        ]
        for name in ("shard.runs", "shard.jobs", "shard.fanout"):
            assert t_reg[name] == p_reg[name]
        for name in ("shard.owned_roots", "shard.sim_seconds"):
            assert t_reg[name]["count"] == p_reg[name]["count"] == 2


# ----------------------------------------------------------------------
# Property: any graph, any N (slow tier)
# ----------------------------------------------------------------------
@st.composite
def bipartite_graphs(draw):
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
@given(g=bipartite_graphs(), n_shards=st.integers(1, 9))
@settings(max_examples=50, deadline=None)
def test_property_shard_union_equals_single_run(g, n_shards):
    reference = _reference(g)
    plan = ShardPlan.build(g, n_shards)
    # ownership sets pairwise disjoint + complete
    owned = [set(plan.owned(i).tolist()) for i in range(n_shards)]
    for i in range(n_shards):
        for j in range(i + 1, n_shards):
            assert not (owned[i] & owned[j])
    assert len(set().union(*owned)) == plan.n_roots
    report = ShardCoordinator(g, n_shards, plan=plan).run()
    assert report.bicliques == reference
    assert len(report.bicliques) == len(set(report.bicliques))
