"""Tests for per-layer scheduling and online speed estimation."""

import pytest

from repro.core.layer import OrderPolicy
from repro.core.partition import PartitionScheme
from repro.core.schedule import DynamicPlanner, EwmaSpeedEstimator, LayerSchedule
from repro.models.config import tiny_config


class TestLayerSchedule:
    def test_static_scheme_repeats(self):
        schedule = LayerSchedule(PartitionScheme.even(3))
        assert schedule.scheme_for_layer(0) == PartitionScheme.even(3)
        assert schedule.scheme_for_layer(17) == PartitionScheme.even(3)

    def test_per_layer_schemes(self):
        schemes = [PartitionScheme.even(2), PartitionScheme([0.7, 0.3])]
        schedule = LayerSchedule(schemes)
        assert schedule.scheme_for_layer(0) == schemes[0]
        assert schedule.scheme_for_layer(1) == schemes[1]
        assert schedule.scheme_for_layer(5) == schemes[1]  # clamp
        assert len(schedule) == 2

    def test_device_count_must_agree(self):
        with pytest.raises(ValueError, match="devices"):
            LayerSchedule([PartitionScheme.even(2), PartitionScheme.even(3)])

    def test_validation(self):
        with pytest.raises(ValueError):
            LayerSchedule([])
        with pytest.raises(ValueError):
            LayerSchedule(PartitionScheme.even(2)).scheme_for_layer(-1)


class TestEwmaSpeedEstimator:
    def test_converges_to_observed_speed(self):
        estimator = EwmaSpeedEstimator([10.0], alpha=0.5)
        for _ in range(20):
            estimator.observe(0, flops=4e9, seconds=1.0)  # true speed: 4 GFLOP/s
        assert estimator.estimates[0] == pytest.approx(4.0, rel=1e-3)

    def test_alpha_one_jumps_immediately(self):
        estimator = EwmaSpeedEstimator([10.0], alpha=1.0)
        estimator.observe(0, flops=2e9, seconds=1.0)
        assert estimator.estimates[0] == pytest.approx(2.0)

    def test_zero_work_observations_ignored(self):
        estimator = EwmaSpeedEstimator([10.0, 20.0])
        estimator.observe(0, flops=0, seconds=0.0)
        assert estimator.estimates == [10.0, 20.0]

    def test_per_device_independence(self):
        estimator = EwmaSpeedEstimator([10.0, 10.0], alpha=1.0)
        estimator.observe(1, flops=1e9, seconds=1.0)
        assert estimator.estimates == [10.0, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaSpeedEstimator([10.0], alpha=0.0)
        with pytest.raises(ValueError):
            EwmaSpeedEstimator([])
        with pytest.raises(ValueError):
            EwmaSpeedEstimator([-1.0])
        estimator = EwmaSpeedEstimator([10.0])
        with pytest.raises(ValueError):
            estimator.observe(1, 1e9, 1.0)
        with pytest.raises(ValueError):
            estimator.observe(0, -1, 1.0)


class TestDynamicPlanner:
    CONFIG = tiny_config(hidden_size=64, num_heads=8, ffn_dim=128)

    def test_first_plan_uses_nominal_speeds(self):
        planner = DynamicPlanner(self.CONFIG, [5.0, 5.0])
        scheme = planner.plan(100)
        assert [p.length for p in scheme.positions(100)] == [50, 50]

    def test_adapts_to_observed_slowdown(self):
        """After observing device 0 running 4x slower, the next plan must
        shift positions to device 1."""
        planner = DynamicPlanner(self.CONFIG, [8.0, 8.0], alpha=1.0)
        n = 120
        scheme = planner.plan(n)
        parts = scheme.positions(n)
        seconds = []
        for device, part in enumerate(parts):
            flops = OrderPolicy().layer_flops(self.CONFIG, n, part.length)
            true_speed = 2.0 if device == 0 else 8.0
            seconds.append(flops / (true_speed * 1e9))
        planner.observe_layer(n, scheme, seconds)
        adapted = planner.plan(n)
        lengths = [p.length for p in adapted.positions(n)]
        assert lengths[0] < lengths[1]

    def test_planned_history_recorded(self):
        planner = DynamicPlanner(self.CONFIG, [5.0, 5.0])
        planner.plan(60)
        planner.plan(60)
        assert len(planner.planned) == 2

    def test_observe_arity_validated(self):
        planner = DynamicPlanner(self.CONFIG, [5.0, 5.0])
        scheme = planner.plan(60)
        with pytest.raises(ValueError, match="timings"):
            planner.observe_layer(60, scheme, [0.1])

    def test_k_property(self):
        assert DynamicPlanner(self.CONFIG, [1.0, 2.0, 3.0]).k == 3
