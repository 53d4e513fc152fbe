"""Dedicated unit tests for TransformerLayer and FeedForward.

(These components are exercised heavily by the partition-equivalence suites;
here we test their own contracts directly.)
"""

import numpy as np
import pytest

from repro.models.config import tiny_config
from repro.models.layer import FeedForward, TransformerLayer
from repro.tensor import functional as F


class TestFeedForward:
    @pytest.fixture
    def ffn(self):
        return FeedForward(32, 64, "gelu", rng=np.random.default_rng(3))

    def test_shape(self, ffn, rng):
        assert ffn(rng.normal(size=(7, 32)).astype(np.float32)).shape == (7, 32)

    def test_matches_manual_composition(self, ffn, rng):
        x = rng.normal(size=(4, 32)).astype(np.float32)
        manual = F.gelu(x @ ffn.fc1.weight.data + ffn.fc1.bias.data)
        manual = manual @ ffn.fc2.weight.data + ffn.fc2.bias.data
        np.testing.assert_allclose(ffn(x), manual, atol=1e-6)

    def test_relu_variant(self, rng):
        ffn = FeedForward(16, 32, "relu", rng=rng)
        hidden = ffn(rng.normal(size=(3, 16)).astype(np.float32))
        assert hidden.shape == (3, 16)

    def test_flops_formula(self, ffn):
        assert ffn.flops(10) == 10 * 32 * 64 + 10 * 64 * 32

    def test_position_wise(self, ffn, rng):
        """Row i depends only on row i — the partitionability property."""
        x = rng.normal(size=(10, 32)).astype(np.float32)
        full = ffn(x)
        np.testing.assert_allclose(ffn(x[3:7]), full[3:7], atol=1e-6)


class TestTransformerLayer:
    def make(self, **overrides):
        return TransformerLayer(tiny_config(**overrides), rng=np.random.default_rng(5))

    def test_shape_preserved(self, rng):
        layer = self.make()
        assert layer(rng.normal(size=(9, 32)).astype(np.float32)).shape == (9, 32)

    def test_post_ln_output_is_normalised(self, rng):
        layer = self.make(norm_style="post")
        out = layer(rng.normal(size=(6, 32)).astype(np.float32))
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(6), atol=1e-5)

    def test_pre_ln_output_not_normalised(self, rng):
        """Pre-LN layers end with a residual add, not a norm."""
        layer = self.make(norm_style="pre", is_causal=True, type_vocab_size=0)
        out = layer(rng.normal(size=(6, 32)).astype(np.float32) * 3)
        assert float(np.abs(out.mean(axis=-1)).max()) > 1e-3

    def test_residual_paths_matter(self, rng):
        """Zeroing the attention+FFN weights leaves (normalised) input —
        the residual connections are actually wired."""
        layer = self.make(norm_style="pre", is_causal=True, type_vocab_size=0)
        for module in (layer.attention.query, layer.attention.key,
                       layer.attention.value, layer.attention.output,
                       layer.ffn.fc1, layer.ffn.fc2):
            module.weight.data = np.zeros_like(module.weight.data)
            if module.bias is not None:
                module.bias.data = np.zeros_like(module.bias.data)
        x = rng.normal(size=(5, 32)).astype(np.float32)
        np.testing.assert_allclose(layer(x), x, atol=1e-6)

    def test_causal_layer_respects_order(self, rng):
        layer = self.make(norm_style="pre", is_causal=True, type_vocab_size=0)
        x = rng.normal(size=(8, 32)).astype(np.float32)
        out_a = layer(x)[:3]
        x2 = x.copy()
        x2[5:] += 9.0
        np.testing.assert_allclose(layer(x2)[:3], out_a, atol=1e-6)

    def test_non_causal_layer_attends_globally(self, rng):
        layer = self.make()
        x = rng.normal(size=(8, 32)).astype(np.float32)
        out_a = layer(x)[:3]
        x2 = x.copy()
        x2[5:] += 9.0
        assert not np.allclose(layer(x2)[:3], out_a, atol=1e-3)

    def test_parameter_count(self):
        layer = self.make()
        f, ffn = 32, 64
        expected = 4 * (f * f + f) + (f * ffn + ffn) + (ffn * f + f) + 2 * 2 * f
        assert layer.num_parameters() == expected

    def test_repr(self):
        assert "F=32" in repr(self.make())
