"""Checkpoint/resume tests: snapshot format, writer, kernel round-trips.

The acceptance bar for resume is *bit-identical continuation*: killing a
run at an arbitrary task boundary and resuming from its checkpoint must
report exactly the biclique set of an uninterrupted run — each biclique
exactly once — and clean completion must remove the checkpoint file.
Corrupt, truncated, or mismatched checkpoints fail with actionable
errors, never tracebacks or silently-wrong output.
"""

import json
import random

import pytest

from repro.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    Snapshot,
    TaskRecord,
    load_checkpoint,
    save_checkpoint,
)
from repro.core import RaggedBicliques
from repro.gmbe import GMBEConfig, gmbe_gpu
from repro.gpusim.device import V100
from repro.gpusim.faults import FaultPlan
from repro.graph import random_bipartite


def _snapshot(**over):
    base = dict(
        graph_fingerprint="f" * 64,
        config_signature=[("bound_height", 4)],
        device_name="A100",
        n_gpus=1,
        root_cursor=5,
        n_roots=10,
        tasks=[TaskRecord(lineage=(3,), left=[0], right=[1, 2],
                          cands=[4], counts=[2], needs_check=False)],
        emissions=RaggedBicliques.from_bicliques(
            [((0,), (1,)), ((2, 3), (1, 4, 5))]
        ),
        executed=[(1,)],
        counters={"maximal": 1},
        elapsed_cycles=12.5,
        tasks_executed=4,
        tasks_split=1,
    )
    base.update(over)
    return Snapshot(**base)


class TestSnapshotFormat:
    def test_json_roundtrip(self):
        snap = _snapshot()
        back = Snapshot.from_json(snap.to_json())
        assert back.graph_fingerprint == snap.graph_fingerprint
        assert back.root_cursor == 5 and back.n_roots == 10
        assert back.tasks[0].lineage == (3,)
        assert back.tasks[0].right == [1, 2]
        assert back.emissions == [((0,), (1,)), ((2, 3), (1, 4, 5))]
        assert back.executed == [(1,)]
        assert back.counters == {"maximal": 1}
        assert back.elapsed_cycles == 12.5

    def test_atomic_save_load(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, _snapshot())
        assert not (tmp_path / "run.ckpt.tmp").exists()
        assert load_checkpoint(path).tasks_executed == 4

    def test_missing_file_is_actionable(self, tmp_path):
        with pytest.raises(CheckpointError, match="without --resume"):
            load_checkpoint(tmp_path / "never-written.ckpt")

    def test_truncated_json_is_actionable(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_text(_snapshot().to_json()[:50])
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            load_checkpoint(path)

    def test_wrong_kind_is_actionable(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(CheckpointError, match="not a GMBE checkpoint"):
            load_checkpoint(path)

    def test_wrong_version_is_actionable(self, tmp_path):
        data = json.loads(_snapshot().to_json())
        data["version"] = 999
        path = tmp_path / "v999.ckpt"
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="format version 999"):
            load_checkpoint(path)

    def test_v2_snapshot_is_refused(self, tmp_path):
        data = json.loads(_snapshot().to_json())
        data["version"] = 2
        data["emissions"] = [[[1], 0, [0], [1]]]  # v2 per-emission rows
        path = tmp_path / "v2.ckpt"
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="format version 2"):
            load_checkpoint(path)

    def test_emissions_are_one_ragged_block(self):
        data = json.loads(_snapshot().to_json())
        assert data["emissions"] == {
            "left": [0, 2, 3], "left_lens": [1, 2],
            "right": [1, 1, 4, 5], "right_lens": [1, 3],
        }
        empty = _snapshot(emissions=RaggedBicliques.from_bicliques(()))
        assert len(Snapshot.from_json(empty.to_json()).emissions) == 0

    @pytest.mark.parametrize("field,value", [
        ("left_lens", [1, 1]),  # lengths do not sum to the ids
        ("right_lens", [-1, 5]),  # a negative length
        ("right", [1, -1, 4, 5]),  # a negative id
        ("left", "0,2,3"),  # not a list
        ("left", [0, 2.5, 3]),  # not integers
        ("right_lens", [4]),  # record counts differ between sides
    ])
    def test_malformed_emissions_name_the_field(self, field, value):
        data = json.loads(_snapshot().to_json())
        data["emissions"][field] = value
        with pytest.raises(CheckpointError, match="emissions"):
            Snapshot.from_json(json.dumps(data))

    def test_emissions_not_an_object(self):
        data = json.loads(_snapshot().to_json())
        data["emissions"] = [[[1], 0, [0], [1]]]
        with pytest.raises(CheckpointError, match="emissions"):
            Snapshot.from_json(json.dumps(data))

    def test_missing_fields_are_actionable(self, tmp_path):
        data = json.loads(_snapshot().to_json())
        del data["root_cursor"]
        path = tmp_path / "partial.ckpt"
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="root_cursor"):
            load_checkpoint(path)

    def test_validate_against_wrong_graph(self):
        with pytest.raises(CheckpointError, match="different graph"):
            _snapshot().validate_against(
                graph_fingerprint="0" * 64,
                config_signature=[("bound_height", 4)],
                device_name="A100", n_gpus=1,
            )

    def test_validate_against_wrong_config_names_the_knob(self):
        with pytest.raises(CheckpointError, match="bound_height"):
            _snapshot().validate_against(
                graph_fingerprint="f" * 64,
                config_signature=[("bound_height", 8)],
                device_name="A100", n_gpus=1,
            )

    def test_validate_against_wrong_topology(self):
        with pytest.raises(CheckpointError, match="V100"):
            _snapshot().validate_against(
                graph_fingerprint="f" * 64,
                config_signature=[("bound_height", 4)],
                device_name="V100", n_gpus=1,
            )


class TestCheckpointWriter:
    def test_cadence(self, tmp_path):
        path = tmp_path / "w.ckpt"
        w = CheckpointWriter(path, every_tasks=3)
        built = []

        def build():
            built.append(1)
            return _snapshot()

        for done in range(1, 10):
            w.maybe_write(done, build)
        assert len(built) == 3  # at tasks 3, 6, 9
        assert w.writes == 3 and path.exists()

    def test_finalize_removes_file(self, tmp_path):
        path = tmp_path / "w.ckpt"
        w = CheckpointWriter(path, every_tasks=1)
        w.maybe_write(1, _snapshot)
        assert path.exists()
        w.finalize_success()
        assert not path.exists()

    def test_invalid_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointWriter(tmp_path / "x", every_tasks=0)


# ----------------------------------------------------------------------
# Kernel round-trips
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    return random_bipartite(28, 24, 0.25, seed=11)


CFG = GMBEConfig(bound_height=2, bound_size=4, max_task_retries=10)


def _enumerate(graph, **kw):
    out = []
    res = gmbe_gpu(graph, lambda L, R: out.append((tuple(L), tuple(R))),
                   config=CFG, **kw)
    return res, out


class TestKernelResume:
    def test_kill_at_random_step_then_resume_is_identical(self, graph):
        _, base = _enumerate(graph)
        full = _enumerate(graph)[0]
        total_tasks = full.extras.get("report").tasks_executed
        rng = random.Random(0)
        for halt in sorted(rng.sample(range(1, max(total_tasks, 2)), 3)):
            import tempfile, os

            with tempfile.TemporaryDirectory() as d:
                ckpt = os.path.join(d, "kill.ckpt")
                r1, out1 = _enumerate(
                    graph, checkpoint_path=ckpt, checkpoint_every=1,
                    halt_after_tasks=halt,
                )
                assert r1.extras["halted"] is True
                assert os.path.exists(ckpt)
                r2, out2 = _enumerate(graph, checkpoint_path=ckpt, resume=True)
                assert r2.extras["resumed"] is True
                # bit-identical full result, each biclique exactly once
                assert sorted(out2) == sorted(base)
                assert len(out2) == len(set(out2)) == len(base)
                # prior progress is a subset, nothing re-emitted by run 1
                assert set(out1) <= set(out2)
                assert len(out1) == len(set(out1))
                # clean finish removes the checkpoint
                assert not os.path.exists(ckpt)

    def test_emission_count_monotone_across_halts(self, graph, tmp_path):
        _, base = _enumerate(graph)
        counts = []
        for halt in (1, 5, 20, 60):
            ckpt = tmp_path / f"h{halt}.ckpt"
            _, out1 = _enumerate(
                graph, checkpoint_path=str(ckpt), checkpoint_every=1,
                halt_after_tasks=halt,
            )
            counts.append(len(out1))
        assert counts == sorted(counts)  # more tasks -> no fewer emissions
        assert counts[-1] <= len(base)

    def test_resume_under_faults_is_identical(self, graph, tmp_path):
        _, base = _enumerate(graph)
        plan = FaultPlan(4, p_sm_crash=0.04, p_warp_hang=0.04,
                         p_queue_drop=0.05, p_mem_pressure=0.05)
        ckpt = tmp_path / "faulty.ckpt"
        _enumerate(graph, fault_plan=plan, checkpoint_path=str(ckpt),
                   checkpoint_every=1, halt_after_tasks=20)
        assert ckpt.exists()
        # the snapshot persists the fault-plan cursor: a fresh plan
        # object with the same seed continues the same fault sequence
        resume_plan = FaultPlan(4, p_sm_crash=0.04, p_warp_hang=0.04,
                                p_queue_drop=0.05, p_mem_pressure=0.05)
        _, out2 = _enumerate(graph, fault_plan=resume_plan,
                             checkpoint_path=str(ckpt), resume=True)
        assert sorted(out2) == sorted(base)
        assert len(out2) == len(set(out2))

    def test_resume_wrong_graph_fails_actionably(self, graph, tmp_path):
        other = random_bipartite(28, 24, 0.25, seed=99)
        ckpt = tmp_path / "a.ckpt"
        _enumerate(graph, checkpoint_path=str(ckpt), checkpoint_every=1,
                   halt_after_tasks=3)
        with pytest.raises(CheckpointError, match="different graph"):
            _enumerate(other, checkpoint_path=str(ckpt), resume=True)

    def test_resume_wrong_config_fails_actionably(self, graph, tmp_path):
        ckpt = tmp_path / "b.ckpt"
        _enumerate(graph, checkpoint_path=str(ckpt), checkpoint_every=1,
                   halt_after_tasks=3)
        other_cfg = GMBEConfig(bound_height=3, bound_size=4,
                               max_task_retries=10)
        with pytest.raises(CheckpointError, match="bound_height"):
            gmbe_gpu(graph, config=other_cfg,
                     checkpoint_path=str(ckpt), resume=True)

    def test_resume_wrong_device_fails_actionably(self, graph, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        _enumerate(graph, checkpoint_path=str(ckpt), checkpoint_every=1,
                   halt_after_tasks=3)
        with pytest.raises(CheckpointError, match="topology|V100"):
            gmbe_gpu(graph, config=CFG, device=V100,
                     checkpoint_path=str(ckpt), resume=True)

    def test_resume_corrupted_checkpoint_fails_actionably(self, graph, tmp_path):
        ckpt = tmp_path / "d.ckpt"
        _enumerate(graph, checkpoint_path=str(ckpt), checkpoint_every=1,
                   halt_after_tasks=3)
        text = ckpt.read_text()
        ckpt.write_text(text[: len(text) // 2])  # simulate torn write
        with pytest.raises(CheckpointError, match="corrupt or truncated"):
            _enumerate(graph, checkpoint_path=str(ckpt), resume=True)

    def test_clean_run_leaves_no_checkpoint(self, graph, tmp_path):
        ckpt = tmp_path / "clean.ckpt"
        res, out = _enumerate(graph, checkpoint_path=str(ckpt),
                              checkpoint_every=5)
        assert not ckpt.exists()
        assert res.extras["checkpoint_writes"] >= 1  # it did checkpoint
        _, base = _enumerate(graph)
        assert sorted(out) == sorted(base)

    def test_elapsed_cycles_accumulate_across_resume(self, graph, tmp_path):
        full, _ = _enumerate(graph)
        ckpt = tmp_path / "t.ckpt"
        r1, _ = _enumerate(graph, checkpoint_path=str(ckpt),
                           checkpoint_every=1, halt_after_tasks=10)
        r2, _ = _enumerate(graph, checkpoint_path=str(ckpt), resume=True)
        # resumed sim_time includes the pre-halt cycles: it must be at
        # least the halted run's and in the ballpark of the full run's
        assert r2.sim_time >= r1.sim_time
        assert r2.sim_time >= 0.9 * full.sim_time


class TestDurability:
    def test_save_fsyncs_data_and_directory(self, tmp_path, monkeypatch):
        """Atomic rename alone survives a process crash; surviving a
        machine crash additionally needs the file *and* its containing
        directory flushed.  Record every fsync to prove both happen."""
        import os as _os

        synced = []
        real_fsync = _os.fsync

        def recording_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr("os.fsync", recording_fsync)
        path = tmp_path / "durable.ckpt"
        save_checkpoint(path, _snapshot())
        assert load_checkpoint(path).root_cursor == 5
        assert len(synced) == 2  # temp file, then the directory

    def test_save_tolerates_directory_fsync_refusal(self, tmp_path,
                                                    monkeypatch):
        """Some filesystems reject fsync on a directory fd; the write
        must still land (the data fsync already happened)."""
        import os as _os
        import stat as _stat

        real_fsync = _os.fsync

        def picky_fsync(fd):
            if _stat.S_ISDIR(_os.fstat(fd).st_mode):
                raise OSError(22, "directory fsync refused")
            return real_fsync(fd)

        monkeypatch.setattr("os.fsync", picky_fsync)
        path = tmp_path / "degraded.ckpt"
        save_checkpoint(path, _snapshot())
        assert load_checkpoint(path).root_cursor == 5
