"""The ``decode_attention`` scenario axis: sampling, runner checks, shrinking.

Distributed attention is regime 2 (closeness, not bit-identity) against the
single device, so it gets its own check names in the runner; the axis is
drawn *after* every pre-existing axis so adding it did not disturb any
seed's scenario, and the shrinker strips it (distributed → gathered) before
touching the token loop so combine bugs minimise to combine configs.
"""

import pytest

from repro.verify import (
    ScenarioConfig,
    config_cost,
    run_scenario,
    run_verification,
    sample_scenario,
    shrink_config,
)

DIST_CHECKS = {
    "decode_distributed_attn_vs_generate_cached",
    "decode_distributed_attn_logits_close",
    "decode_distributed_attn_analytic_vs_sim",
    "decode_combine_volume",
}


def _distributed_config(**overrides) -> ScenarioConfig:
    base = dict(
        seed=0, family="gpt2", devices=3, device_gflops=(2.0, 1.0, 3.0),
        decode_steps=3, decode_attention="distributed",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestAxisSampling:
    def test_sampler_covers_both_modes(self):
        configs = [sample_scenario(seed) for seed in range(120)]
        decoding = [c for c in configs if c.decode_steps]
        assert {c.decode_attention for c in decoding} == {"gathered", "distributed"}

    def test_non_decode_scenarios_stay_gathered(self):
        for seed in range(120):
            config = sample_scenario(seed)
            if not config.decode_steps:
                assert config.decode_attention == "gathered"

    def test_label_marks_distributed_only(self):
        assert "attn=distributed" in _distributed_config().label
        assert "attn=" not in _distributed_config(decode_attention="gathered").label

    def test_old_dicts_default_to_gathered(self):
        data = _distributed_config().to_dict()
        del data["decode_attention"]
        assert ScenarioConfig.from_dict(data).decode_attention == "gathered"

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="decode_attention"):
            _distributed_config(decode_attention="ring")


class TestRunnerChecks:
    def test_distributed_scenario_emits_and_passes_all_checks(self):
        result = run_scenario(_distributed_config(runtime="process", wire_dtype="float16"))
        names = {c.name for c in result.checks}
        assert DIST_CHECKS | {"decode_distributed_attn_process_vs_threaded"} <= names
        assert result.ok, [c.to_dict() for c in result.failed_checks] or result.error

    def test_gathered_scenario_skips_distributed_checks(self):
        result = run_scenario(_distributed_config(decode_attention="gathered"))
        assert not (DIST_CHECKS & {c.name for c in result.checks})
        assert result.ok

    def test_force_decode_attention_pins_every_decoding_scenario(self):
        report = run_verification(
            num_seeds=4, shrink=False, force_decode=True,
            force_decode_attention="distributed",
        )
        assert report.ok, report.summary()
        assert all(
            r.config.decode_attention == "distributed" for r in report.results
        )


class TestShrinking:
    def test_distributed_costs_more_than_gathered(self):
        assert config_cost(_distributed_config()) > config_cost(
            _distributed_config(decode_attention="gathered")
        )

    def test_mode_insensitive_failure_shrinks_to_gathered(self):
        # a predicate that fails whenever the token loop runs at all should
        # lose the distributed axis (tried before decode_steps reductions)
        minimal = shrink_config(
            _distributed_config(),
            fails=lambda c: c.decode_steps > 0,
            max_attempts=60,
        )
        assert minimal.decode_attention == "gathered"
        assert minimal.decode_steps == 1

    def test_mode_sensitive_failure_keeps_distributed(self):
        minimal = shrink_config(
            _distributed_config(),
            fails=lambda c: c.decode_attention == "distributed",
            max_attempts=60,
        )
        assert minimal.decode_attention == "distributed"
        assert minimal.decode_steps >= 1

    def test_dropping_the_token_loop_resets_the_axis(self):
        minimal = shrink_config(
            _distributed_config(),
            fails=lambda c: True,
            max_attempts=80,
        )
        assert minimal.decode_steps == 0
        assert minimal.decode_attention == "gathered"
