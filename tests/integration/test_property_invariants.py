"""Property-based integration invariants across randomly drawn settings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import ClusterSpec
from repro.core.partition import PartitionScheme
from repro.models import BertModel, TransformerLayer, tiny_config
from repro.core.layer import PartitionedLayerExecutor
from repro.systems import TensorParallelSystem, VoltageSystem


class TestPartitionedModelInvariant:
    """Voltage's fundamental invariant: for ANY scheme, any device count,
    any model shape — the distributed output equals the plain forward."""

    @given(
        k=st.integers(1, 6),
        num_heads=st.sampled_from([2, 4]),
        num_layers=st.integers(1, 3),
        n_words=st.integers(1, 30),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_voltage_equivalence(self, k, num_heads, num_layers, n_words, seed):
        rng = np.random.default_rng(seed)
        cfg = tiny_config(num_heads=num_heads, num_layers=num_layers)
        model = BertModel(cfg, num_classes=2, rng=rng)
        cluster = ClusterSpec.homogeneous(k, gflops=5.0)
        ids = rng.integers(0, cfg.vocab_size, size=n_words + 2)
        result = VoltageSystem(model, cluster).run(ids)
        np.testing.assert_allclose(result.output, model(ids), atol=2e-3)

    @given(k=st.integers(1, 8), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_tensor_parallel_equivalence(self, k, seed):
        rng = np.random.default_rng(seed)
        cfg = tiny_config(num_layers=2)
        model = BertModel(cfg, num_classes=2, rng=rng)
        cluster = ClusterSpec.homogeneous(k, gflops=5.0)
        ids = rng.integers(0, cfg.vocab_size, size=12)
        result = TensorParallelSystem(model, cluster).run(ids)
        np.testing.assert_allclose(result.output, model(ids), atol=2e-3)

    @given(
        weights=st.lists(st.floats(0.05, 10.0), min_size=2, max_size=6),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_scheme_equivalence(self, weights, seed):
        rng = np.random.default_rng(seed)
        layer = TransformerLayer(tiny_config(), rng=rng)
        executor = PartitionedLayerExecutor(layer)
        x = rng.normal(size=(25, 32)).astype(np.float32)
        scheme = PartitionScheme.proportional(weights)
        tiles = [executor.forward_partition(x, p) for p in scheme.positions(25)]
        tiles = [t for t in tiles if t.shape[0]]
        np.testing.assert_allclose(np.concatenate(tiles), layer(x), atol=1e-4)


class TestLatencyInvariants:
    @given(
        k=st.integers(2, 6),
        bandwidth=st.sampled_from([100, 300, 500, 1000]),
        n=st.integers(20, 300),
    )
    @settings(max_examples=25, deadline=None)
    def test_voltage_comm_always_quarter_of_tp(self, k, bandwidth, n):
        """At any operating point the modelled All-Gather volume stays 1/4
        of the two All-Reduces (volumes, not times — times also include
        per-round latency)."""
        from repro.core import complexity

        voltage = complexity.voltage_comm_elements(n, 768, k)
        tensor = complexity.tensor_parallel_comm_elements(n, 768, k)
        assert tensor == pytest.approx(4 * voltage)

    @given(k=st.integers(1, 6), n=st.integers(10, 200))
    @settings(max_examples=25, deadline=None)
    def test_per_device_flops_shrink_with_k(self, k, n):
        """Algorithm 1's per-device work never grows when devices are added."""
        from repro.core.layer import OrderPolicy
        from repro.models.config import bert_large_config

        cfg = bert_large_config()
        p_k = max(1, round(n / k))
        p_1 = n
        policy = OrderPolicy()
        assert policy.layer_flops(cfg, n, p_k) <= policy.layer_flops(cfg, n, p_1)

    @given(
        n=st.integers(16, 256),
        f_exp=st.integers(5, 8),
        h_exp=st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_adaptive_order_never_loses(self, n, f_exp, h_exp):
        """For any (N, P, F, H) the adaptive choice is at least as cheap as
        both fixed strategies — Theorem 2 end to end."""
        from repro.core import complexity

        f = 2**f_exp
        h = 2**h_exp
        fh = f // h
        for p in {1, n // 7 + 1, n // 2, n}:
            chosen = complexity.select_order(n, p, f, fh)
            cost = complexity.attention_order_cost(chosen, n, p, f, fh).matmul
            assert cost <= complexity.gamma_eq3(n, p, f, fh).matmul
            assert cost <= complexity.gamma_eq8(n, p, f, fh).matmul
