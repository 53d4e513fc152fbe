"""The differential runner: all paths agree on sampled scenarios."""

import pytest

from repro.verify import ScenarioConfig, replay_seed, run_scenario, sample_scenario

CHECKS_ALWAYS_PRESENT = {
    "single_device_exact",
    "voltage_run_vs_single",
    "voltage_threaded_vs_run",
    "voltage_analytic_vs_sim",
    "voltage_comm_volume",
    "tensor_parallel_run_vs_single",
    "tensor_parallel_threaded_vs_run",
}


class TestHealthyScenarios:
    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_scenario_passes_all_checks(self, seed):
        result = run_scenario(sample_scenario(seed))
        assert result.ok, "\n".join(
            f"{c.name}: {c.detail}" for c in result.failed_checks
        ) + (f"\nerror: {result.error}" if result.error else "")

    def test_every_core_check_is_emitted(self):
        result = run_scenario(sample_scenario(0))
        assert CHECKS_ALWAYS_PRESENT <= {c.name for c in result.checks}

    def test_failure_scenarios_emit_fault_checks(self):
        config = sample_scenario(0).replaced(
            family="bert", devices=3, device_gflops=(2.0, 2.0, 2.0),
            num_layers=2, seq_len=9, failures=((1, 1),),
            scheme_kind="even", schedule_ratios=None,
        )
        result = run_scenario(config)
        names = {c.name for c in result.checks}
        assert {"fault_tolerant_run_vs_single", "fault_tolerant_survivors"} <= names
        assert result.ok

    def test_degenerate_single_device_cluster(self):
        config = sample_scenario(0).replaced(
            family="gpt2", devices=1, device_gflops=(2.0,),
            scheme_kind="even", schedule_ratios=None, failures=(),
        )
        result = run_scenario(config)
        assert result.ok


class TestAnalyticCheck:
    def test_static_schemes_are_checked_not_skipped(self):
        config = sample_scenario(0).replaced(
            scheme_kind="proportional", schedule_ratios=None
        )
        result = run_scenario(config)
        (check,) = [c for c in result.checks if c.name == "voltage_analytic_vs_sim"]
        assert not check.skipped and check.passed

    def test_true_layer_schedule_is_checked_not_skipped(self):
        """The timeline takes per-layer partitions, so a schedule whose
        layers really differ is compared like any static scheme."""
        config = ScenarioConfig(
            seed=0, family="bert", devices=2, device_gflops=(2.0, 2.0),
            num_layers=2, seq_len=8, scheme_kind="schedule",
            schedule_ratios=((0.5, 0.5), (0.2, 0.8)),
        )
        result = run_scenario(config)
        (check,) = [c for c in result.checks if c.name == "voltage_analytic_vs_sim"]
        assert not check.skipped and check.passed
        assert result.ok


class TestReplay:
    def test_replay_reproduces_the_same_verdict(self):
        first, second = replay_seed(5), replay_seed(5)
        assert first.config == second.config
        assert [c.to_dict() for c in first.checks] == [c.to_dict() for c in second.checks]

    def test_crash_becomes_error_not_exception(self):
        # devices=0 is invalid — from_dict raises before run_scenario, so
        # exercise the error path with an impossible-but-constructible config
        config = sample_scenario(1).replaced(bandwidth_mbps=0.0)
        result = run_scenario(config)  # must not raise
        assert isinstance(result.ok, bool)
