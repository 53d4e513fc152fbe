"""Unit tests for Linear / LayerNorm / Embedding modules."""

import numpy as np
import pytest

from repro.tensor.layers import Embedding, LayerNorm, Linear


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(8, 3, rng=rng)
        assert layer(np.zeros((5, 8), dtype=np.float32)).shape == (5, 3)

    def test_weight_orientation_is_in_by_out(self, rng):
        layer = Linear(8, 3, rng=rng)
        assert layer.weight.shape == (8, 3)

    def test_matches_manual_affine(self, rng):
        layer = Linear(4, 2, rng=rng)
        x = rng.normal(size=(3, 4)).astype(np.float32)
        np.testing.assert_allclose(
            layer(x), x @ layer.weight.data + layer.bias.data, atol=1e-6
        )

    def test_no_bias_mode(self, rng):
        layer = Linear(4, 2, rng=rng, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_flops_matches_paper_gamma(self):
        # Γ(xW) = N · F · F_H
        layer = Linear(16, 4)
        assert layer.flops(10) == 10 * 16 * 4

    def test_deterministic_with_seed(self):
        a = Linear(4, 4, rng=np.random.default_rng(9))
        b = Linear(4, 4, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestLayerNorm:
    def test_identity_at_init_statistics(self, rng):
        layer = LayerNorm(8)
        x = rng.normal(size=(4, 8)).astype(np.float32)
        out = layer(x)
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-5)

    def test_rejects_wrong_feature_dim(self, rng):
        layer = LayerNorm(8)
        with pytest.raises(ValueError, match="expected last dim 8"):
            layer(np.zeros((4, 7)))

    def test_learned_affine_applied(self, rng):
        layer = LayerNorm(4)
        layer.weight.data = np.full(4, 3.0, dtype=np.float32)
        layer.bias.data = np.full(4, 1.0, dtype=np.float32)
        x = rng.normal(size=(2, 4)).astype(np.float32)
        base = LayerNorm(4)(x)
        np.testing.assert_allclose(layer(x), base * 3.0 + 1.0, atol=1e-6)

    def test_has_two_parameters(self):
        assert len(list(LayerNorm(8).parameters())) == 2


class TestEmbedding:
    def test_lookup_shape(self, rng):
        table = Embedding(10, 4, rng=rng)
        assert table(np.array([1, 2, 3])).shape == (3, 4)

    def test_same_id_same_vector(self, rng):
        table = Embedding(10, 4, rng=rng)
        out = table(np.array([5, 5]))
        np.testing.assert_array_equal(out[0], out[1])

    def test_out_of_range_raises(self, rng):
        table = Embedding(10, 4, rng=rng)
        with pytest.raises(IndexError):
            table(np.array([11]))
