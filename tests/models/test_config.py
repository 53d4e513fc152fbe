"""Tests for model configurations."""

import pytest

from repro.models.config import (
    TransformerConfig,
    bert_large_config,
    gpt2_config,
    tiny_config,
    vit_base_config,
)


class TestValidation:
    def test_hidden_size_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            TransformerConfig(hidden_size=100, num_heads=3)

    def test_norm_style(self):
        with pytest.raises(ValueError, match="norm_style"):
            TransformerConfig(norm_style="sandwich")

    def test_activation(self):
        with pytest.raises(ValueError, match="activation"):
            TransformerConfig(activation="swish")

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            TransformerConfig(num_layers=0)

    def test_head_dim(self):
        assert TransformerConfig(hidden_size=96, num_heads=12).head_dim == 8

    def test_scaled_copy(self):
        cfg = tiny_config().scaled(num_layers=7)
        assert cfg.num_layers == 7
        assert cfg.hidden_size == tiny_config().hidden_size

    def test_frozen(self):
        with pytest.raises(Exception):
            tiny_config().num_layers = 3


class TestPresets:
    """The presets must match the published model architectures exactly —
    latency depends on these shapes."""

    def test_bert_large(self):
        cfg = bert_large_config()
        assert (cfg.hidden_size, cfg.num_heads, cfg.num_layers) == (1024, 16, 24)
        assert cfg.head_dim == 64
        assert cfg.ffn_dim == 4096
        assert cfg.norm_style == "post" and not cfg.is_causal

    def test_gpt2(self):
        cfg = gpt2_config()
        assert (cfg.hidden_size, cfg.num_heads, cfg.num_layers) == (768, 12, 12)
        assert cfg.vocab_size == 50257
        assert cfg.is_causal and cfg.norm_style == "pre"

    def test_vit(self):
        cfg = vit_base_config()
        assert (cfg.hidden_size, cfg.num_heads, cfg.num_layers) == (768, 12, 12)
        assert cfg.extras["patch_size"] == 16
        assert cfg.max_positions == 197

    def test_paper_multihead_assumption_holds(self):
        """Theorem 2 assumes F = H·F_H with H ≥ 2 — all presets satisfy it."""
        for cfg in (bert_large_config(), gpt2_config(), vit_base_config()):
            assert cfg.num_heads >= 2
            assert cfg.num_heads * cfg.head_dim == cfg.hidden_size
