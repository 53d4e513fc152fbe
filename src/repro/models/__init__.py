"""Faithful re-implementations of the paper's three evaluation models.

BERT-Large-Uncased, GPT-2 and ViT-B/16 with their exact architectural
hyper-parameters (latency depends on shapes, not weight values, so weights
are seeded-random — see DESIGN.md's substitution table).
"""

from repro.models.attention import MultiHeadSelfAttention
from repro.models.base import TransformerModel
from repro.models.bert import BertModel
from repro.models.config import (
    TransformerConfig,
    bert_large_config,
    gpt2_config,
    tiny_config,
    vit_base_config,
)
from repro.models.embeddings import PatchEmbeddings, TextEmbeddings
from repro.models.gpt2 import GPT2Model, greedy_loop
from repro.models.cache import KVCache, LayerKVCache, layer_forward_cached
from repro.models.layer import FeedForward, TransformerLayer
from repro.models.tokenizer import SimpleTokenizer
from repro.models.vit import ViTModel

__all__ = [
    "BertModel",
    "KVCache",
    "LayerKVCache",
    "layer_forward_cached",
    "FeedForward",
    "GPT2Model",
    "MultiHeadSelfAttention",
    "PatchEmbeddings",
    "SimpleTokenizer",
    "TextEmbeddings",
    "TransformerConfig",
    "TransformerLayer",
    "TransformerModel",
    "ViTModel",
    "bert_large_config",
    "gpt2_config",
    "greedy_loop",
    "tiny_config",
    "vit_base_config",
]
