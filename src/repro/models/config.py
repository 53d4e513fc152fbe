"""Model configurations for the three evaluation models.

The paper evaluates BERT-Large-Uncased, ViT and GPT2 from HuggingFace; we
re-create the exact architectural hyper-parameters (shapes drive latency;
weight values do not).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "TransformerConfig",
    "bert_large_config",
    "gpt2_config",
    "vit_base_config",
    "tiny_config",
]


@dataclass(frozen=True)
class TransformerConfig:
    """Hyper-parameters of a transformer layer stack.

    Attributes mirror the paper's notation: ``hidden_size`` is F,
    ``num_heads`` is H, and ``head_dim`` is F_H with ``F = H·F_H``
    (the standard setting the paper assumes throughout Theorem 2).
    """

    hidden_size: int = 768
    num_heads: int = 12
    num_layers: int = 12
    ffn_dim: int = 3072
    vocab_size: int = 30522
    max_positions: int = 512
    activation: str = "gelu"
    layer_norm_eps: float = 1e-12
    is_causal: bool = False
    norm_style: str = "post"  # "post" (BERT/original) or "pre" (GPT-2/ViT)
    type_vocab_size: int = 2  # BERT segment embeddings; 0 disables
    attention_bias: bool = True
    name: str = "transformer"
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size={self.hidden_size} not divisible by num_heads={self.num_heads}"
            )
        if self.norm_style not in ("post", "pre"):
            raise ValueError(f"norm_style must be 'post' or 'pre', got {self.norm_style!r}")
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"unsupported activation {self.activation!r}")
        if min(self.num_layers, self.ffn_dim, self.vocab_size, self.max_positions) < 1:
            raise ValueError("num_layers, ffn_dim, vocab_size, max_positions must be >= 1")

    @property
    def head_dim(self) -> int:
        """F_H — attention feature dimensionality per head."""
        return self.hidden_size // self.num_heads

    def scaled(self, **overrides) -> "TransformerConfig":
        """Copy with overrides — used to shrink models for tests."""
        return replace(self, **overrides)


def bert_large_config() -> TransformerConfig:
    """BERT-Large-Uncased: 24 layers, F=1024, H=16, F_H=64, FFN 4096."""
    return TransformerConfig(
        hidden_size=1024,
        num_heads=16,
        num_layers=24,
        ffn_dim=4096,
        vocab_size=30522,
        max_positions=512,
        activation="gelu",
        norm_style="post",
        is_causal=False,
        name="bert-large-uncased",
    )


def gpt2_config() -> TransformerConfig:
    """GPT-2 (117M): 12 layers, F=768, H=12, causal, pre-LN."""
    return TransformerConfig(
        hidden_size=768,
        num_heads=12,
        num_layers=12,
        ffn_dim=3072,
        vocab_size=50257,
        max_positions=1024,
        activation="gelu",
        norm_style="pre",
        is_causal=True,
        type_vocab_size=0,
        name="gpt2",
    )


def vit_base_config() -> TransformerConfig:
    """ViT-Base/16: 12 layers, F=768, H=12, pre-LN, 224×224 → 197 tokens."""
    return TransformerConfig(
        hidden_size=768,
        num_heads=12,
        num_layers=12,
        ffn_dim=3072,
        vocab_size=1,  # no token vocabulary; inputs are image patches
        max_positions=197,
        activation="gelu",
        norm_style="pre",
        is_causal=False,
        type_vocab_size=0,
        name="vit-base-patch16-224",
        extras={"image_size": 224, "patch_size": 16, "num_channels": 3},
    )


def tiny_config(**overrides) -> TransformerConfig:
    """A small config for unit tests (fast but structurally complete)."""
    defaults = dict(
        hidden_size=32,
        num_heads=4,
        num_layers=2,
        ffn_dim=64,
        vocab_size=100,
        max_positions=64,
        activation="gelu",
        norm_style="post",
        is_causal=False,
        name="tiny",
    )
    defaults.update(overrides)
    return TransformerConfig(**defaults)
