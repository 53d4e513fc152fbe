"""Tests for the single-device baseline system."""

import numpy as np

from repro.systems import SingleDeviceSystem
from repro.systems.single_device import single_device_timeline


class TestSingleDevice:
    def test_output_matches_model_forward(self, bert, cluster1, token_ids):
        system = SingleDeviceSystem(bert, cluster1)
        result = system.run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-6)

    def test_latency_has_all_phase_kinds(self, bert, cluster1, token_ids):
        result = SingleDeviceSystem(bert, cluster1).run(token_ids)
        assert result.latency.compute_seconds > 0
        assert result.latency.comm_seconds > 0  # input/output shipping

    def test_one_compute_phase_per_layer(self, bert, cluster1, token_ids):
        result = SingleDeviceSystem(bert, cluster1).run(token_ids)
        layer_phases = [p for p in result.latency.phases if p.name == "layer compute"]
        assert len(layer_phases) == bert.num_layers

    def test_latency_scales_inversely_with_device_speed(self, bert, token_ids):
        from repro.cluster.spec import ClusterSpec

        slow = SingleDeviceSystem(bert, ClusterSpec.homogeneous(1, gflops=1.0)).run(token_ids)
        fast = SingleDeviceSystem(bert, ClusterSpec.homogeneous(1, gflops=10.0)).run(token_ids)
        assert fast.latency.compute_seconds < slow.latency.compute_seconds

    def test_meta_fields(self, bert, cluster1, token_ids):
        result = SingleDeviceSystem(bert, cluster1).run(token_ids)
        assert result.meta["system"] == "single-device"
        assert result.meta["n"] == len(token_ids)

    def test_latency_seconds_helper(self, bert, cluster1, token_ids):
        """``run()``'s total is the weight-free timeline's over the same shapes."""
        n = len(token_ids)
        latency, meta = single_device_timeline(
            bert.config, n, cluster1,
            pre_flops=bert.preprocess_flops(n), post_flops=bert.postprocess_flops(n),
        )
        assert meta == {}
        assert SingleDeviceSystem(bert, cluster1).run(token_ids).total_seconds == (
            latency.total_seconds
        )

    def test_accepts_raw_text(self, bert, cluster1):
        result = SingleDeviceSystem(bert, cluster1).run("raw text input")
        assert result.output.shape == (3,)

    def test_repr(self, bert, cluster1):
        assert "single" in repr(SingleDeviceSystem(bert, cluster1)).lower()
