"""The transformer layer (encoder/decoder block) — paper Fig. 1.

Supports both normalisation placements used by the evaluation models:

- ``post`` (BERT, the original transformer, and the paper's Fig. 1):
  ``y = LN(x + MHA(x)); out = LN(y + FFN(y))``
- ``pre`` (GPT-2, ViT):
  ``y = x + MHA(LN(x)); out = y + FFN(LN(y))``

Both are partitionable by position: layer norm and the FFN are position-wise,
and the attention input (``x`` or ``LN(x)``) is shared by all devices after
the All-Gather.
"""

from __future__ import annotations

import numpy as np

from repro.models.attention import MultiHeadSelfAttention
from repro.models.config import TransformerConfig
from repro.tensor import functional as F
from repro.tensor.layers import LayerNorm, Linear
from repro.tensor.module import Module

__all__ = ["FeedForward", "TransformerLayer"]


class FeedForward(Module):
    """Position-wise two-layer FFN: ``Act(x W_1 + b_1) W_2 + b_2``."""

    def __init__(
        self,
        hidden_size: int,
        ffn_dim: int,
        activation: str = "gelu",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.fc1 = Linear(hidden_size, ffn_dim, rng=rng)
        self.fc2 = Linear(ffn_dim, hidden_size, rng=rng)
        self.activation = activation
        #: the element-wise ``Act`` — public so a caller that has the two
        #: weight products served elsewhere (the cached layer, INTERNALS §10)
        #: applies the same function between them
        self.activate = F.ACTIVATIONS[activation]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.fc2(self.activate(self.fc1(x)))

    def flops(self, n_rows: int) -> int:
        return self.fc1.flops(n_rows) + self.fc2.flops(n_rows)


class TransformerLayer(Module):
    """One full transformer layer; the unit Algorithm 1 partitions."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(0)
        self.attention = MultiHeadSelfAttention(
            config.hidden_size, config.num_heads, rng=rng, bias=config.attention_bias
        )
        self.ffn = FeedForward(config.hidden_size, config.ffn_dim, config.activation, rng=rng)
        self.ln1 = LayerNorm(config.hidden_size, eps=config.layer_norm_eps)
        self.ln2 = LayerNorm(config.hidden_size, eps=config.layer_norm_eps)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full-sequence forward pass ``(N, F) → (N, F)``."""
        causal = self.config.is_causal
        if self.config.norm_style == "post":
            attended = self.attention(x, causal=causal)
            y = self.ln1(attended + x)
            return self.ln2(y + self.ffn(y))
        normed = self.ln1(x)
        y = x + self.attention(normed, causal=causal)
        return y + self.ffn(self.ln2(y))

    def __repr__(self) -> str:
        return (
            f"TransformerLayer(F={self.config.hidden_size}, H={self.config.num_heads}, "
            f"ffn={self.config.ffn_dim}, norm={self.config.norm_style})"
        )
