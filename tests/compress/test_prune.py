"""Head-pruned layer geometry (Michel et al.) and its composition with Voltage.

A head-pruned layer keeps F_H but has fewer heads, so ``H·F_H < F``.  The
tests build one directly as a narrower :class:`MultiHeadSelfAttention`; the
partitioned executor reads head geometry from the module, so Theorem 2's
order selection and the FLOP accounting must follow it.
"""

import numpy as np
import pytest

from repro.core.layer import PartitionedLayerExecutor
from repro.core.partition import Partition
from repro.models import BertModel, tiny_config
from repro.models.attention import MultiHeadSelfAttention
from repro.models.layer import TransformerLayer


def narrow_attention(layer, num_heads: int, seed: int = 0) -> MultiHeadSelfAttention:
    """A fresh attention of ``num_heads`` heads with the layer's F and F_H."""
    attention = layer.attention
    return MultiHeadSelfAttention(
        attention.hidden_size, num_heads, head_dim=attention.head_dim,
        rng=np.random.default_rng(seed),
    )


@pytest.fixture
def layer():
    return TransformerLayer(tiny_config(), rng=np.random.default_rng(6))


class TestPrunedPartitioning:
    """The paper's Section VII-A: compressed models still partition exactly."""

    def test_partition_matches_full_slice_after_pruning(self, rng, layer):
        layer.attention = narrow_attention(layer, 3)
        executor = PartitionedLayerExecutor(layer)
        x = rng.normal(size=(14, 32)).astype(np.float32)
        full = layer(x)
        out = executor.forward_partition(x, Partition(3, 10))
        np.testing.assert_allclose(out, full[3:10], atol=1e-4)

    def test_flops_drop_with_heads(self, layer):
        executor_before = PartitionedLayerExecutor(layer)
        flops_before = executor_before.full_flops(20)
        layer.attention = narrow_attention(layer, 1)
        flops_after = PartitionedLayerExecutor(layer).full_flops(20)
        assert flops_after < flops_before

    def test_order_selection_uses_pruned_geometry(self, layer):
        """After pruning, F_H is unchanged but H shrinks; Theorem 2 input is
        (F, F_H), so selection still works and flop accounting uses kept H."""
        layer.attention = narrow_attention(layer, 2)
        executor = PartitionedLayerExecutor(layer)
        assert executor.select_order(20, 20).is_naive


class TestPruneModel:
    def test_pruned_model_serves_distributed_exactly(self):
        from repro.cluster.spec import ClusterSpec
        from repro.systems import TensorParallelSystem, VoltageSystem

        model = BertModel(tiny_config(num_layers=2), num_classes=3,
                          rng=np.random.default_rng(2))
        for index, layer in enumerate(model.layers):
            layer.attention = narrow_attention(layer, 2, seed=index)
        ids = model.encode_text("pruned then distributed")
        reference = model(ids)
        cluster = ClusterSpec.homogeneous(2, gflops=5.0)
        voltage = VoltageSystem(model, cluster).run(ids)
        np.testing.assert_allclose(voltage.output, reference, atol=1e-4)
        tensor = TensorParallelSystem(model, cluster).run(ids)
        np.testing.assert_allclose(tensor.output, reference, atol=1e-4)

    def test_compression_speeds_up_distributed_latency(self):
        """Orthogonality, quantified: pruning reduces Voltage's latency too."""
        from repro.cluster.spec import ClusterSpec
        from repro.systems import VoltageSystem

        cluster = ClusterSpec.homogeneous(3, gflops=0.05)
        dense = BertModel(tiny_config(num_layers=2), rng=np.random.default_rng(3))
        ids = dense.encode_text("some words to classify " * 3)
        before = VoltageSystem(dense, cluster).run(ids).latency.compute_seconds
        for layer in dense.layers:
            layer.attention = narrow_attention(layer, 1)
        after = VoltageSystem(dense, cluster).run(ids).latency.compute_seconds
        assert after < before
