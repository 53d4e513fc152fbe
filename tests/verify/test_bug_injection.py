"""Demo: the harness catches an injected wire-encoding bug and shrinks it.

The injected defect replicates the exact regression fixed in PR 1: the
threaded workers exchanged *unencoded* partitions, so threaded
``execute_distributed`` silently diverged from ``run()`` for float16/int8
wire dtypes while all the hand-picked float32 test configs stayed green.  The conformance harness must
(a) flag it via the ``voltage_threaded_vs_run`` bit-identity check, and
(b) shrink the failing scenario to a minimal reproducing config that keeps
the distinguishing dimension — the lossy wire dtype.
"""

import numpy as np
import pytest

from repro.cluster.runtime import ThreadedRuntime
from repro.systems import VoltageSystem
from repro.verify import (
    ScenarioConfig,
    build_scheme,
    config_cost,
    run_scenario,
    run_verification,
    shrink_config,
)


class WireSkippingVoltage(VoltageSystem):
    """Voltage whose threaded path 'forgets' the wire encoding (PR-1 bug)."""

    def execute_distributed(self, raw, runtime=None, overlap=None):
        x0 = self.model.preprocess(raw)
        n = x0.shape[0]
        layer_parts = [
            self.scheme_for(n, layer=index).positions(n)
            for index in range(len(self.executors))
        ]

        def worker(ctx):
            x = x0
            for executor, parts in zip(self.executors, layer_parts):
                out = executor.forward_partition(x, parts[ctx.rank])
                # BUG under test: no self._encode_for_wire(out) here
                x = ctx.all_gather(out, axis=0)
            return x

        results, stats = ThreadedRuntime(self.k).run(worker)
        return self.model.postprocess(self.model.final_norm(results[0])), stats


def buggy_factory(model, cluster, config):
    return WireSkippingVoltage(
        model, cluster, scheme=build_scheme(config), wire_dtype=config.wire_dtype
    )


FAT_FAILING_CONFIG = ScenarioConfig(
    seed=0,
    family="bert",
    num_layers=4,
    num_heads=4,
    head_dim=8,
    ffn_dim=64,
    seq_len=24,
    devices=4,
    device_gflops=(1.0, 2.0, 4.0, 8.0),
    bandwidth_mbps=500.0,
    scheme_kind="schedule",
    schedule_ratios=((0.25, 0.25, 0.25, 0.25),) * 3 + ((0.1, 0.2, 0.3, 0.4),),
    wire_dtype="int8",
    order_mode="reordered",
    failures=((3, 2),),
)


def _fails(config):
    return not run_scenario(config, voltage_factory=buggy_factory).ok


class TestBugIsCaught:
    def test_threaded_check_flags_the_divergence(self):
        result = run_scenario(FAT_FAILING_CONFIG, voltage_factory=buggy_factory)
        assert not result.ok
        assert "voltage_threaded_vs_run" in {c.name for c in result.failed_checks}

    def test_float32_configs_do_not_mask_the_bug(self):
        """The PR-1 regression was invisible on float32 configs — exactly why
        hand-picked configs missed it.  The harness agrees: float32 passes."""
        result = run_scenario(
            FAT_FAILING_CONFIG.replaced(wire_dtype="float32"),
            voltage_factory=buggy_factory,
        )
        assert result.ok

    def test_fuzzing_campaign_finds_the_bug(self):
        report = run_verification(
            num_seeds=12, voltage_factory=buggy_factory, shrink=False
        )
        assert not report.ok
        lossy = [r for r in report.results if r.config.wire_dtype != "float32"]
        assert lossy, "sampler must draw at least one lossy wire dtype in 12 seeds"
        assert all(not r.ok for r in lossy)
        assert all(r.ok for r in report.results if r.config.wire_dtype == "float32")


class TestBugIsShrunk:
    @pytest.fixture(scope="class")
    def minimal(self):
        return shrink_config(FAT_FAILING_CONFIG, fails=_fails)

    def test_shrunk_config_still_fails(self, minimal):
        assert _fails(minimal)

    def test_shrunk_config_is_minimal_in_every_dimension(self, minimal):
        assert minimal.num_layers == 1
        assert minimal.devices == 1
        assert minimal.seq_len == 2
        assert minimal.failures == ()
        assert minimal.schedule_ratios is None
        assert len(set(minimal.device_gflops)) == 1

    def test_shrinking_preserves_the_distinguishing_dimension(self, minimal):
        """A wire-encoding bug only reproduces on a lossy dtype, so the
        shrinker cannot have 'simplified' wire_dtype away."""
        assert minimal.wire_dtype == "int8"

    def test_shrunk_is_strictly_smaller(self, minimal):
        assert config_cost(minimal) < config_cost(FAT_FAILING_CONFIG)

    def test_shrink_is_deterministic(self, minimal):
        assert shrink_config(FAT_FAILING_CONFIG, fails=_fails) == minimal


class TestHealthySystemStaysGreen:
    def test_the_real_voltage_passes_the_same_fat_config(self):
        result = run_scenario(FAT_FAILING_CONFIG)
        assert result.ok, [c.name for c in result.failed_checks]

    def test_encoded_and_unencoded_outputs_really_differ(self):
        """Sanity: the injected bug changes bytes on the wire, not a no-op."""
        from repro.verify import build_cluster, build_input, build_model

        model = build_model(FAT_FAILING_CONFIG)
        cluster = build_cluster(FAT_FAILING_CONFIG)
        raw = build_input(FAT_FAILING_CONFIG, model)
        good = VoltageSystem(
            model, cluster, scheme=build_scheme(FAT_FAILING_CONFIG), wire_dtype="int8"
        )
        buggy = buggy_factory(model, cluster, FAT_FAILING_CONFIG)
        good_out, _ = good.execute_distributed(raw, runtime="threaded")
        buggy_out, _ = buggy.execute_distributed(raw, runtime="threaded")
        assert not np.array_equal(good_out, buggy_out)
