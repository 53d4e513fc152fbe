"""Tests for the tensor-parallel baseline (Megatron-style sharding)."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.systems import TensorParallelSystem, VoltageSystem
from repro.systems.tensor_parallel import shard_layer


class TestSharding:
    def test_even_head_split(self, bert):
        shards = shard_layer(bert.layers[0], 2)
        assert [s.num_heads for s in shards] == [2, 2]
        f = bert.config.hidden_size
        assert shards[0].wq.shape == (f, f // 2)

    def test_uneven_head_split(self, bert):
        shards = shard_layer(bert.layers[0], 3)  # 4 heads over 3 devices
        assert [s.num_heads for s in shards] == [2, 1, 1]

    def test_more_devices_than_heads(self, bert):
        shards = shard_layer(bert.layers[0], 6)
        assert sum(s.num_heads for s in shards) == bert.config.num_heads
        assert shards[-1].num_heads == 0

    def test_ffn_columns_cover_everything(self, bert):
        shards = shard_layer(bert.layers[0], 3)
        assert sum(s.local_ffn for s in shards) == bert.config.ffn_dim

    def test_output_bias_on_exactly_one_device(self, bert):
        shards = shard_layer(bert.layers[0], 4)
        assert sum(1 for s in shards if s.bo is not None) == 1
        assert sum(1 for s in shards if s.fc2_b is not None) == 1

    def test_shards_reassemble_original_weights(self, bert):
        layer = bert.layers[0]
        shards = shard_layer(layer, 3)
        np.testing.assert_array_equal(
            np.concatenate([s.wq for s in shards], axis=1), layer.attention.query.weight.data
        )
        np.testing.assert_array_equal(
            np.concatenate([s.fc1_w for s in shards], axis=1), layer.ffn.fc1.weight.data
        )
        np.testing.assert_array_equal(
            np.concatenate([s.fc2_w for s in shards], axis=0), layer.ffn.fc2.weight.data
        )


class TestOutputEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_single_device(self, bert, token_ids, k):
        """Includes k=3 (uneven heads) and k=5,6 (devices without heads)."""
        cluster = ClusterSpec.homogeneous(k, gflops=5.0)
        result = TensorParallelSystem(bert, cluster).run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-3)

    def test_causal_pre_ln_model(self, gpt2, cluster4):
        ids = np.arange(1, 17)
        result = TensorParallelSystem(gpt2, cluster4).run(ids)
        np.testing.assert_allclose(result.output, gpt2(ids), atol=1e-3)


class TestLatencyStructure:
    def test_two_allreduce_phases_per_layer(self, bert, cluster4, token_ids):
        result = TensorParallelSystem(bert, cluster4).run(token_ids)
        allreduce = [p for p in result.latency.phases if p.name == "2x all-reduce"]
        assert len(allreduce) == bert.num_layers

    def test_comm_volume_is_4x_voltage(self, bert, cluster4, token_ids):
        tp = TensorParallelSystem(bert, cluster4).run(token_ids)
        voltage = VoltageSystem(bert, cluster4).run(token_ids)
        # compare per-layer: voltage meta excludes the final gather layer
        layers = bert.num_layers
        tp_per_layer = tp.meta["allreduce_bytes_per_device"] / layers
        v_per_layer = voltage.meta["allgather_bytes_per_device"] / (layers - 1)
        assert tp_per_layer / v_per_layer == pytest.approx(4.0, rel=0.05)

    def test_compute_splits_across_devices(self, bert, token_ids):
        def compute_s(k):
            cluster = ClusterSpec.homogeneous(k, gflops=5.0)
            return TensorParallelSystem(bert, cluster).run(token_ids).latency.compute_seconds

        assert compute_s(4) < compute_s(1)

    def test_comm_heavy_on_slow_network(self, bert, token_ids):
        slow = ClusterSpec.homogeneous(4, gflops=5.0, bandwidth_mbps=100)
        result = TensorParallelSystem(bert, slow).run(token_ids)
        assert result.latency.comm_fraction > 0.5


class TestThreadedExecution:
    def test_matches_emulated_run(self, bert, cluster4, token_ids):
        system = TensorParallelSystem(bert, cluster4)
        emulated = system.run(token_ids)
        threaded_out, stats = system.execute_distributed(token_ids)
        np.testing.assert_allclose(threaded_out, emulated.output, atol=1e-5)
        # 2 collectives per layer per worker
        assert stats[0].collective_calls == 2 * bert.num_layers

    def test_byte_accounting_matches_section_vc(self, bert, cluster4, token_ids):
        from repro.core.planner import tensor_parallel_layer_bytes

        system = TensorParallelSystem(bert, cluster4)
        _, stats = system.execute_distributed(token_ids)
        n = len(token_ids)
        expected = tensor_parallel_layer_bytes(n, bert.config.hidden_size, 4) * bert.num_layers
        for s in stats:
            # counters are exact per-rank ring integers; the analytic formula
            # assumes K divides N, so uneven splits (29 rows over 4 ranks)
            # drift by up to ~(K-1)/N from the uniform 2(K-1)/K volume
            assert s.bytes_received == pytest.approx(expected, rel=0.05)
            assert isinstance(s.bytes_sent, int) and isinstance(s.bytes_received, int)

    def test_causal_threaded(self, gpt2, cluster4):
        ids = np.arange(1, 12)
        out, _ = TensorParallelSystem(gpt2, cluster4).execute_distributed(ids)
        np.testing.assert_allclose(out, gpt2(ids), atol=1e-3)
