"""Tests for the perf-gate snapshot validation in check_regression.py."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def gate_mod():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location(
            "check_regression", BENCH_DIR / "check_regression.py"
        )
        mod = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = mod  # dataclasses needs the module findable
        spec.loader.exec_module(mod)
        yield mod
    finally:
        sys.modules.pop(spec.name, None)
        sys.path.remove(str(BENCH_DIR))


class TestLoadSnapshot:
    def test_missing_file_names_the_fix(self, gate_mod, tmp_path):
        with pytest.raises(gate_mod.SnapshotError, match="--update"):
            gate_mod.load_snapshot(tmp_path / "nope.json", "speedup")

    def test_corrupt_json_is_not_a_traceback(self, gate_mod, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("{not json")
        with pytest.raises(gate_mod.SnapshotError, match="not valid JSON"):
            gate_mod.load_snapshot(path, "speedup")

    def test_missing_metric(self, gate_mod, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"other": 1.0}))
        with pytest.raises(gate_mod.SnapshotError, match="speedup"):
            gate_mod.load_snapshot(path, "speedup")

    def test_non_numeric_metric(self, gate_mod, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"speedup": "fast"}))
        with pytest.raises(gate_mod.SnapshotError, match="must be a number"):
            gate_mod.load_snapshot(path, "speedup")

    def test_valid_snapshot_roundtrip(self, gate_mod, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"speedup": 3.5}))
        assert gate_mod.load_snapshot(path, "speedup") == 3.5


class TestMainErrors:
    def test_unknown_gate_exits_nonzero(self, gate_mod, capsys):
        assert gate_mod.main(["--only", "nonsense"]) == 2
        assert "unknown gate" in capsys.readouterr().err

    def test_only_without_name_exits_nonzero(self, gate_mod, capsys):
        assert gate_mod.main(["--only"]) == 2
        assert "--only requires" in capsys.readouterr().err

    def test_missing_snapshot_fails_without_running_bench(
        self, gate_mod, capsys, monkeypatch
    ):
        gate = gate_mod.GATES[0]
        monkeypatch.setattr(
            gate_mod,
            "GATES",
            (
                gate_mod.Gate(
                    name=gate.name,
                    path=Path("/nonexistent/BENCH.json"),
                    metric=gate.metric,
                    run=lambda: pytest.fail("bench must not run"),
                    tolerance=gate.tolerance,
                    floor=gate.floor,
                ),
            ),
        )
        assert gate_mod.main([]) == 1
        err = capsys.readouterr().err
        assert "does not exist" in err and "--update" in err


class TestFailureMessages:
    @staticmethod
    def faults_gate_output(gate_mod, capsys, tmp_path, fresh):
        """Output of a failing ``faults`` check whose run reads ``fresh``
        against a 0.96 snapshot."""
        (gate,) = [g for g in gate_mod.GATES if g.name == "faults"]
        path = tmp_path / "BENCH_faults.json"
        path.write_text(json.dumps({gate.metric: 0.96}))
        fake = gate_mod.Gate(
            name=gate.name, path=path, metric=gate.metric,
            run=lambda: {gate.metric: fresh},
            tolerance=gate.tolerance, floor=gate.floor,
        )
        assert not gate_mod.check_gate(fake, update=False)
        return capsys.readouterr().out

    def test_absolute_floor_printed_to_three_places(
        self, gate_mod, capsys, tmp_path
    ):
        # faults has a 0.95 floor; a 0.93 run is within the regression
        # tolerance of a 0.96 snapshot, so only the floor check fails
        out = self.faults_gate_output(gate_mod, capsys, tmp_path, 0.93)
        assert "below the 0.950x acceptance floor (0.930x)" in out
        assert "regressed" not in out

    def test_ratio_just_under_the_floor_does_not_print_as_the_floor(
        self, gate_mod, capsys, tmp_path
    ):
        out = self.faults_gate_output(gate_mod, capsys, tmp_path, 0.946)
        assert "fresh " in out and "0.946x" in out
        assert "below the 0.950x acceptance floor (0.946x)" in out
        assert "regressed" not in out
