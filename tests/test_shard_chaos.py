"""Chaos tests: SIGKILL real shard workers, prove bit-identical recovery.

The acceptance bar (DESIGN.md §12): a sharded run on the supervised
process pool must survive the SIGKILL of any single shard worker and
still produce the exact merged set of an undisturbed run — via restart
and, when a checkpoint exists, mid-run resume.  When a shard keeps dying
past its retry budget, the run must degrade *explicitly*: a
:class:`ShardReport` with ``is_partial`` set, naming every completed
and quarantined shard,
never a silently short list.

Kills are real (``os.kill(getpid(), SIGKILL)`` inside the spawned
worker, armed via the coordinator's ``chaos_kills`` hook), so these
tests exercise the whole supervision stack: heartbeat pipes, death
verdicts, slot respawn, checkpoint resume, ordered k-way merge.
"""

import pytest

from repro import enumerate_maximal_bicliques
from repro.core import BicliqueCollector
from repro.gmbe import GMBEConfig, gmbe_gpu
from repro.graph import random_bipartite
from repro.sharding import (
    DegradedShardRun,
    ResumeHandle,
    ShardCoordinator,
    ShardPlan,
    ShardReport,
    run_shard_task,
)

CFG = GMBEConfig()


@pytest.fixture(scope="module")
def graph():
    return random_bipartite(40, 32, 0.18, seed=11)


@pytest.fixture(scope="module")
def reference(graph):
    col = BicliqueCollector()
    gmbe_gpu(graph, col, config=CFG)
    return sorted(col.bicliques)


@pytest.mark.slow
class TestProcessPoolParity:
    def test_union_bit_identical(self, graph, reference):
        report = ShardCoordinator(
            graph, 4, config=CFG, pool="process", n_workers=2
        ).run()
        assert report.bicliques == reference
        assert report.is_partial is False
        assert report.extras["shard_attempts"] == {0: 1, 1: 1, 2: 1, 3: 1}
        assert report.extras["pool_stats"]["deaths"] == 0

    def test_pool_string_validated(self, graph):
        with pytest.raises(ValueError, match="pool"):
            ShardCoordinator(graph, 2, pool="fork")

    def test_chaos_kills_require_process_backend(self, graph):
        with pytest.raises(ValueError, match="process"):
            ShardCoordinator(graph, 2, chaos_kills={0: (1, 0.0)})

    def test_api_routes_shard_pool(self, graph, reference):
        out = enumerate_maximal_bicliques(
            graph, shards=4, shard_pool="process"
        )
        assert out == reference


@pytest.mark.slow
class TestCrashRecovery:
    def test_killed_shard_restarts_bit_identical(self, graph, reference,
                                                 tmp_path):
        """Shard 1's worker is SIGKILLed on its first attempt; the retry
        (on a respawned worker) must restore the exact merged set."""
        report = ShardCoordinator(
            graph, 4, config=CFG, pool="process", n_workers=2,
            checkpoint_dir=str(tmp_path), chaos_kills={1: (1, 0.0)},
        ).run()
        assert report.bicliques == reference
        assert report.extras["shard_attempts"][1] == 2
        assert report.extras["pool_stats"]["deaths"] >= 1

    @pytest.mark.parametrize("delay", [0.0, 0.02, 0.05])
    def test_kill_at_arbitrary_instant_recovers(self, graph, reference,
                                                tmp_path, delay):
        """The kill lands wherever the timer says — before the shard
        starts, mid-enumeration, or after it finished.  Whatever the
        interleaving, the merged set must come out bit-identical."""
        report = ShardCoordinator(
            graph, 4, config=CFG, pool="process", n_workers=2,
            checkpoint_dir=str(tmp_path), checkpoint_every=16,
            chaos_kills={2: (1, delay)},
        ).run()
        assert report.bicliques == reference

    def test_killed_shard_resumes_from_mid_run_checkpoint(
        self, graph, reference, tmp_path
    ):
        """Plant a genuine mid-run snapshot for shard 1 (halt the shard
        partway, exactly what a checkpointed crash leaves behind), then
        SIGKILL its first process-pool attempt: the retry must *resume*
        from the snapshot — not restart — and merge bit-identically."""
        plan = ShardPlan.build(graph, 4)
        halted = run_shard_task(
            graph, plan, 1, config=CFG, checkpoint_dir=str(tmp_path),
            checkpoint_every=4, halt_after_tasks=6,
        )
        assert halted.halted  # the snapshot really is mid-run
        report = ShardCoordinator(
            graph, 4, config=CFG, pool="process", n_workers=2,
            checkpoint_dir=str(tmp_path), chaos_kills={1: (1, 0.0)},
        ).run()
        assert report.bicliques == reference
        assert 1 in report.extras["resumed_shards"]
        assert report.extras["shard_attempts"][1] == 2


@pytest.mark.slow
class TestQuarantine:
    def test_poison_shard_degrades_to_partial(self, graph, reference,
                                              tmp_path):
        """A shard that dies on every attempt is quarantined after the
        budget; the run returns an explicitly partial ShardReport with
        the full completed/quarantined inventory and per-shard resume
        handles."""
        partial = ShardCoordinator(
            graph, 4, config=CFG, pool="process", n_workers=2,
            checkpoint_dir=str(tmp_path),
            chaos_kills={2: (99, 0.0)}, max_shard_attempts=2,
        ).run()
        assert isinstance(partial, ShardReport)
        assert partial.is_partial is True
        assert partial.quarantined == [2]
        assert partial.completed_shards == [0, 1, 3]
        assert [r.shard_id for r in partial.shards] == [0, 1, 3]
        # the survivors' merge is still duplicate-free and a strict
        # subset of the full enumeration
        assert partial.bicliques == sorted(partial.bicliques)
        assert set(partial.bicliques) < set(reference)
        (handle,) = partial.resume
        assert isinstance(handle, ResumeHandle)
        assert handle.shard_id == 2 and handle.attempts == 2
        assert "WorkerCrashError" in handle.last_error
        assert f"{plan_sig(graph)}-0002of4" in handle.checkpoint_path
        assert partial.extras["shard_errors"] == {2: handle.last_error}

    def test_degraded_run_is_resumable_to_completion(self, graph,
                                                     reference, tmp_path):
        """Re-running the same plan over the same checkpoint directory
        without the chaos finishes the quarantined shard."""
        ShardCoordinator(
            graph, 4, config=CFG, pool="process", n_workers=2,
            checkpoint_dir=str(tmp_path),
            chaos_kills={3: (99, 0.0)}, max_shard_attempts=2,
        ).run()
        report = ShardCoordinator(
            graph, 4, config=CFG, pool="process", n_workers=2,
            checkpoint_dir=str(tmp_path),
        ).run()
        assert report.bicliques == reference

    def test_api_raises_degraded_with_partial_attached(self, graph,
                                                       monkeypatch):
        """The one-shot API promises the complete set: a partial report
        surfaces as DegradedShardRun carrying it, never a short list."""
        fake = ShardReport(
            plan=ShardPlan.build(graph, 4), shards=[], bicliques=[],
            counters=None, sim_time=0.0, placement=[], quarantined=[2],
            resume=[ResumeHandle(2, None, 3, "boom")],
        )
        monkeypatch.setattr(ShardCoordinator, "run", lambda self: fake)
        with pytest.raises(DegradedShardRun, match="quarantined") as ei:
            enumerate_maximal_bicliques(graph, shards=4,
                                        shard_pool="process")
        assert ei.value.partial is fake


def plan_sig(graph) -> str:
    return ShardPlan.build(graph, 4).signature()[:16]


class TestCliFlags:
    def test_pool_process_requires_shards(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--shards"):
            main(["run", "Mti", "--pool", "process"])
