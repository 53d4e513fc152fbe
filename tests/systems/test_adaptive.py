"""Tests for the adaptive (dynamic-scheme) Voltage system."""

import numpy as np
import pytest

from repro.cluster.dynamics import constant_trace, random_walk_trace, spike_trace
from repro.systems import AdaptiveVoltageSystem, VoltageSystem


@pytest.fixture
def trace4():
    return spike_trace(4, num_steps=10, victim=0, spike_start=0, slowdown=4.0)


class TestCorrectness:
    """Dynamic re-partitioning must never change the computed output."""

    @pytest.mark.parametrize("mode", ["static", "dynamic", "oracle"])
    def test_output_equals_plain_model(self, bert, cluster4, token_ids, trace4, mode):
        system = AdaptiveVoltageSystem(bert, cluster4, trace=trace4, mode=mode)
        result = system.run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)

    def test_schemes_recorded_per_layer(self, bert, cluster4, token_ids, trace4):
        result = AdaptiveVoltageSystem(bert, cluster4, trace=trace4).run(token_ids)
        assert len(result.meta["scheme_per_layer"]) == bert.num_layers

    def test_matches_plain_voltage_without_dynamics(self, bert, cluster4, token_ids):
        """With a constant trace and static mode, the adaptive system is
        exactly the paper's Voltage."""
        baseline = VoltageSystem(bert, cluster4).run(token_ids)
        adaptive = AdaptiveVoltageSystem(
            bert, cluster4, trace=constant_trace(4), mode="static"
        ).run(token_ids)
        assert adaptive.latency.phases == baseline.latency.phases
        np.testing.assert_array_equal(adaptive.output, baseline.output)


class TestAdaptationValue:
    def test_oracle_beats_static_under_spike(self, bert, cluster4, token_ids, trace4):
        static = AdaptiveVoltageSystem(
            bert, cluster4, trace=trace4, mode="static"
        ).run(token_ids)
        oracle = AdaptiveVoltageSystem(
            bert, cluster4, trace=trace4, mode="oracle"
        ).run(token_ids)
        assert oracle.latency.compute_seconds < static.latency.compute_seconds

    def test_dynamic_between_static_and_oracle_under_spike(
        self, bert, cluster4, token_ids, trace4
    ):
        def compute_s(mode):
            return (
                AdaptiveVoltageSystem(bert, cluster4, trace=trace4, mode=mode)
                .run(token_ids)
                .latency.compute_seconds
            )

        static, dynamic, oracle = compute_s("static"), compute_s("dynamic"), compute_s("oracle")
        assert oracle <= dynamic * (1 + 1e-9)
        assert dynamic < static  # EWMA learns the straggler within a few layers

    def test_dynamic_shifts_work_away_from_victim(self, bert, cluster4, token_ids, trace4):
        result = AdaptiveVoltageSystem(bert, cluster4, trace=trace4, mode="dynamic").run(
            token_ids
        )
        first_ratio = result.meta["scheme_per_layer"][0][0]
        last_ratio = result.meta["scheme_per_layer"][-1][0]
        assert last_ratio < first_ratio  # victim's share shrinks over layers

    def test_speed_estimates_track_truth(self, bert, cluster4, token_ids, trace4):
        result = AdaptiveVoltageSystem(
            bert, cluster4, trace=trace4, mode="dynamic", ewma_alpha=1.0
        ).run(token_ids)
        estimates = result.meta["speed_estimates"]
        nominal = cluster4.device_gflops
        assert estimates[0] == pytest.approx(nominal[0] / 4.0, rel=0.1)  # the victim
        assert estimates[1] == pytest.approx(nominal[1], rel=0.1)

    def test_random_walk_dynamic_not_worse_than_static(self, bert, cluster4, token_ids):
        trace = random_walk_trace(4, 20, volatility=0.25, floor=0.3, seed=3)

        def compute_s(mode):
            return (
                AdaptiveVoltageSystem(bert, cluster4, trace=trace, mode=mode)
                .run(token_ids)
                .latency.compute_seconds
            )

        assert compute_s("dynamic") <= compute_s("static") * 1.05


class TestValidation:
    def test_unknown_mode(self, bert, cluster4):
        with pytest.raises(ValueError, match="mode"):
            AdaptiveVoltageSystem(bert, cluster4, mode="psychic")

    def test_trace_device_count_checked(self, bert, cluster4):
        with pytest.raises(ValueError, match="devices"):
            AdaptiveVoltageSystem(bert, cluster4, trace=constant_trace(3))

    @pytest.mark.parametrize("mode", ["static", "dynamic", "oracle"])
    def test_ewma_alpha_checked_in_every_mode(self, bert, cluster4, mode):
        with pytest.raises(ValueError, match="ewma_alpha"):
            AdaptiveVoltageSystem(bert, cluster4, mode=mode, ewma_alpha=7.0)
