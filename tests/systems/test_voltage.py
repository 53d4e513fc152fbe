"""Tests for the Voltage system (Algorithm 2)."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.partition import PartitionScheme
from repro.models import BertModel, tiny_config
from repro.systems import SingleDeviceSystem, VoltageSystem


class TestOutputEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_matches_single_device_output(self, bert, token_ids, k):
        cluster = ClusterSpec.homogeneous(k, gflops=5.0)
        reference = bert(token_ids)
        result = VoltageSystem(bert, cluster).run(token_ids)
        np.testing.assert_allclose(result.output, reference, atol=1e-4)

    def test_causal_model(self, gpt2, cluster4):
        ids = np.arange(1, 16)
        reference = gpt2(ids)
        result = VoltageSystem(gpt2, cluster4).run(ids)
        np.testing.assert_allclose(result.output, reference, atol=1e-3)

    def test_uneven_custom_scheme(self, bert, token_ids):
        cluster = ClusterSpec.homogeneous(3, gflops=5.0)
        scheme = PartitionScheme([0.6, 0.3, 0.1])
        result = VoltageSystem(bert, cluster, scheme=scheme).run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)

    def test_more_devices_than_positions(self, bert):
        short_ids = bert.encode_text("hi")  # 4 tokens
        cluster = ClusterSpec.homogeneous(8, gflops=5.0)
        result = VoltageSystem(bert, cluster).run(short_ids)
        np.testing.assert_allclose(result.output, bert(short_ids), atol=1e-4)


class TestLatencyStructure:
    def test_one_allgather_per_inner_layer_one_final_gather(self, bert, cluster4, token_ids):
        result = VoltageSystem(bert, cluster4).run(token_ids)
        names = [p.name for p in result.latency.phases]
        assert names.count("all-gather") == bert.num_layers - 1
        assert names.count("gather to terminal") == 1
        assert names.count("broadcast input") == 1

    def test_latency_below_single_device_with_fast_network(self, bert, token_ids):
        """On a fast network the K-way compute split must win."""
        single = SingleDeviceSystem(
            bert, ClusterSpec.homogeneous(1, gflops=0.01, bandwidth_mbps=10_000,
                                          latency_seconds=1e-6)
        ).run(token_ids)
        voltage = VoltageSystem(
            bert, ClusterSpec.homogeneous(4, gflops=0.01, bandwidth_mbps=10_000,
                                          latency_seconds=1e-6)
        ).run(token_ids)
        assert voltage.total_seconds < single.total_seconds

    def test_compute_time_shrinks_with_devices(self, bert, token_ids):
        def compute_s(k):
            cluster = ClusterSpec.homogeneous(k, gflops=5.0)
            return VoltageSystem(bert, cluster).run(token_ids).latency.compute_seconds

        assert compute_s(4) < compute_s(2) < compute_s(1)

    def test_meta_reports_scheme_and_orders(self, bert, cluster4, token_ids):
        result = VoltageSystem(bert, cluster4).run(token_ids)
        assert len(result.meta["scheme"]) == 4
        assert result.meta["scheme_uniform"] is True
        assert len(result.meta["scheme_per_layer"]) == bert.num_layers
        assert len(result.meta["orders"]) == bert.num_layers
        assert set(result.meta["orders"]) <= {"eq3", "eq8"}

    def test_meta_reports_per_layer_schemes_under_schedule(self, bert, cluster4, token_ids):
        """Regression: meta["scheme"] used to echo layer 0's ratios even when
        a LayerSchedule varied the split every layer."""
        from repro.core.partition import PartitionScheme
        from repro.core.schedule import LayerSchedule

        schedule = LayerSchedule([
            PartitionScheme.even(4),
            PartitionScheme([0.5, 0.3, 0.1, 0.1]),
        ])
        result = VoltageSystem(bert, cluster4, scheme=schedule).run(token_ids)
        assert result.meta["scheme_uniform"] is False
        per_layer = result.meta["scheme"]
        assert len(per_layer) == bert.num_layers
        assert per_layer[0] == PartitionScheme.even(4).ratios
        assert per_layer[1] == PartitionScheme([0.5, 0.3, 0.1, 0.1]).ratios
        assert per_layer[2] == per_layer[1]  # last scheme repeats
        assert result.meta["scheme_per_layer"] == per_layer

    def test_allgather_bytes_match_planner_formula(self, bert, cluster4, token_ids):
        from repro.core.planner import voltage_layer_bytes

        n = len(token_ids)
        result = VoltageSystem(bert, cluster4).run(token_ids)
        # inner layers only (the last layer gathers to the terminal instead)
        expected = voltage_layer_bytes(n, bert.config.hidden_size, 4) * (bert.num_layers - 1)
        assert result.meta["allgather_bytes_per_device"] == pytest.approx(expected, rel=0.1)


class TestSchemes:
    def test_scheme_arity_validated_at_construction(self, bert, cluster4):
        with pytest.raises(ValueError, match="devices"):
            VoltageSystem(bert, cluster4, scheme=PartitionScheme.even(3))

    def test_auto_scheme_on_heterogeneous_cluster(self, bert, token_ids):
        cluster = ClusterSpec.heterogeneous([2.0, 4.0, 8.0])
        system = VoltageSystem(bert, cluster, scheme="auto")
        scheme = system.scheme_for(len(token_ids))
        lengths = [p.length for p in scheme.positions(len(token_ids))]
        assert lengths[0] < lengths[2]
        result = system.run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)

    @pytest.mark.parametrize("n", [48, 96, 200])
    def test_auto_scheme_is_makespan_optimal(self, n):
        """``"auto"`` stays within one position of the brute-force best over
        every 3-way split, priced as ``run()`` prices."""
        config = tiny_config(hidden_size=64, num_heads=8, num_layers=2)
        model = BertModel(config, num_classes=3, rng=np.random.default_rng(0))
        cluster = ClusterSpec.heterogeneous([1.0, 2.0, 4.0])
        system = VoltageSystem(model, cluster, scheme="auto")

        def makespan(lengths, extra=0):
            return max(
                system.policy.layer_flops(config, n, min(p + extra, n)) / gflops
                if p + extra else 0.0
                for p, gflops in zip(lengths, cluster.device_gflops)
            )

        splits = [(a, b, n - a - b) for a in range(n + 1) for b in range(n + 1 - a)]
        auto = makespan([part.length for part in system.scheme_for(n).positions(n)])
        assert auto <= min(makespan(split, extra=1) for split in splits)
        assert auto >= min(makespan(split) for split in splits)

    def test_unknown_scheme_string(self, bert, cluster4, token_ids):
        system = VoltageSystem(bert, cluster4, scheme="magic")
        with pytest.raises(ValueError, match="unsupported scheme"):
            system.run(token_ids)

    def test_default_scheme_is_even(self, bert, cluster4):
        assert VoltageSystem(bert, cluster4).scheme_for(100) == PartitionScheme.even(4)


class TestThreadedExecution:
    def test_output_matches_emulated_run(self, bert, cluster4, token_ids):
        system = VoltageSystem(bert, cluster4)
        emulated = system.run(token_ids)
        threaded_out, _ = system.execute_distributed(token_ids)
        np.testing.assert_allclose(threaded_out, emulated.output, atol=1e-5)

    def test_causal_threaded(self, gpt2, cluster4):
        ids = np.arange(1, 14)
        system = VoltageSystem(gpt2, cluster4)
        out, _ = system.execute_distributed(ids)
        np.testing.assert_allclose(out, gpt2(ids), atol=1e-3)

    def test_byte_accounting_close_to_section_vc(self, bert, cluster4, token_ids):
        """Per-worker received bytes ≈ (K-1)/K · N·F·4 per layer."""
        from repro.core.planner import voltage_layer_bytes

        system = VoltageSystem(bert, cluster4)
        _, stats = system.execute_distributed(token_ids)
        n = len(token_ids)
        expected = voltage_layer_bytes(n, bert.config.hidden_size, 4) * bert.num_layers
        for s in stats:
            assert s.bytes_received == pytest.approx(expected, rel=0.15)
