"""Tests for GMBEConfig validation and updates."""

import numpy as np
import pytest

from repro.gmbe import DEFAULT_CONFIG, GMBEConfig


class TestDefaults:
    def test_paper_defaults(self):
        """§6.1: bound_height=20, bound_size=1500, WarpPerSM=16."""
        assert DEFAULT_CONFIG.bound_height == 20
        assert DEFAULT_CONFIG.bound_size == 1500
        assert DEFAULT_CONFIG.warps_per_sm == 16
        assert DEFAULT_CONFIG.prune is True
        assert DEFAULT_CONFIG.scheduling == "task"
        assert DEFAULT_CONFIG.node_reuse is True


class TestValidation:
    def test_bounds_positive(self):
        with pytest.raises(ValueError):
            GMBEConfig(bound_height=0)
        with pytest.raises(ValueError):
            GMBEConfig(bound_size=-1)

    def test_warps_positive(self):
        with pytest.raises(ValueError):
            GMBEConfig(warps_per_sm=0)

    def test_scheduling_values(self):
        with pytest.raises(ValueError):
            GMBEConfig(scheduling="grid")
        for ok in ("task", "warp", "block"):
            assert GMBEConfig(scheduling=ok).scheduling == ok

    @pytest.mark.parametrize(
        "field, value",
        [
            ("prune", "x"),
            ("prune", 1),
            ("prune", np.bool_(True)),
            ("node_reuse", "no"),
            ("node_reuse", None),
            ("bound_height", 2.5),
            ("bound_size", "9"),
            ("warps_per_sm", True),
            ("max_task_retries", False),
            ("max_task_retries", None),
        ],
    )
    def test_field_types_rejected_with_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            GMBEConfig(**{field: value})

    @pytest.mark.parametrize(
        "field", ["bound_height", "bound_size", "warps_per_sm", "max_task_retries"]
    )
    def test_numpy_ints_accepted(self, field):
        cfg = GMBEConfig(**{field: np.int64(7)})
        assert getattr(cfg, field) == 7


class TestWith:
    def test_functional_update(self):
        cfg = DEFAULT_CONFIG.with_(prune=False, warps_per_sm=8)
        assert cfg.prune is False and cfg.warps_per_sm == 8
        assert DEFAULT_CONFIG.prune is True  # original untouched

    def test_update_validates(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.with_(scheduling="bogus")

    def test_hashable_for_cache_keys(self):
        assert hash(GMBEConfig()) == hash(GMBEConfig())
        assert GMBEConfig() != GMBEConfig(prune=False)


class TestBatchTasksKnob:
    def test_default_is_auto(self):
        assert DEFAULT_CONFIG.batch_tasks == "auto"

    def test_valid_values(self):
        assert GMBEConfig(batch_tasks="off").batch_tasks == "off"
        assert GMBEConfig(batch_tasks="auto").batch_tasks == "auto"
        assert GMBEConfig(batch_tasks=4).batch_tasks == 4

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            GMBEConfig(batch_tasks="on")
        with pytest.raises(ValueError):
            GMBEConfig(batch_tasks=0)
        with pytest.raises(ValueError):
            GMBEConfig(batch_tasks=-3)
        with pytest.raises(ValueError):
            GMBEConfig(batch_tasks=True)  # bools are not batch sizes
        with pytest.raises(ValueError):
            GMBEConfig(batch_tasks=2.5)

    def test_json_round_trip(self):
        for value in ("off", "auto", 4):
            cfg = GMBEConfig(batch_tasks=value)
            back = GMBEConfig.from_json(cfg.to_json())
            assert back == cfg
            assert back.batch_tasks == value

    def test_values_validated_on_load(self):
        with pytest.raises(ValueError):
            GMBEConfig.from_json('{"batch_tasks": "sometimes"}')
        with pytest.raises(ValueError):
            GMBEConfig.from_json('{"batch_tasks": 0}')


class TestOrderKnob:
    def test_values(self):
        for ok in ("degree", "degeneracy", "none"):
            assert GMBEConfig(order=ok).order == ok
        with pytest.raises(ValueError):
            GMBEConfig(order="random")

    def test_order_changes_signature(self):
        """Cache keys and checkpoint guards must see the ordering."""
        assert (
            GMBEConfig(order="degree").signature()
            != GMBEConfig(order="degeneracy").signature()
        )


class TestSerialization:
    def test_json_round_trip_defaults(self):
        assert GMBEConfig.from_json(GMBEConfig().to_json()) == GMBEConfig()

    def test_json_round_trip_every_field_changed(self):
        cfg = GMBEConfig(
            bound_height=7,
            bound_size=99,
            warps_per_sm=8,
            prune=False,
            scheduling="warp",
            node_reuse=False,
            set_backend="bitset",
            max_task_retries=5,
            batch_tasks=4,
            order="degeneracy",
        )
        assert GMBEConfig.from_json(cfg.to_json()) == cfg

    def test_missing_keys_take_defaults(self):
        cfg = GMBEConfig.from_dict({"bound_height": 4})
        assert cfg == GMBEConfig(bound_height=4)

    def test_unknown_keys_rejected_with_names(self):
        with pytest.raises(ValueError) as exc:
            GMBEConfig.from_dict({"bound_hieght": 4, "warp_count": 8})
        msg = str(exc.value)
        assert "bound_hieght" in msg and "warp_count" in msg
        assert "bound_height" in msg  # the valid keys are listed

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            GMBEConfig.from_dict([("bound_height", 4)])

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            GMBEConfig.from_json("{not json")

    def test_values_validated_on_load(self):
        with pytest.raises(ValueError):
            GMBEConfig.from_json('{"scheduling": "grid"}')
