"""Full (unpartitioned) multi-head self-attention — Eq. (1)–(2) of the paper."""

from __future__ import annotations

import numpy as np

from repro.core.orders import AttentionParams, attention_full
from repro.tensor.layers import Linear
from repro.tensor.module import Module

__all__ = ["MultiHeadSelfAttention"]


class MultiHeadSelfAttention(Module):
    """Standard multi-head self-attention with output projection.

    ``MultiHead(x) = Concat(A_1(x), ..., A_H(x)) · W_O`` where each head is
    ``Attn(x W_Q^i, x W_K^i, x W_V^i)``.  The projection weights are stored
    as single ``(F, H·F_H)`` matrices with heads contiguous along columns,
    which is both the HuggingFace layout and what
    :class:`repro.core.orders.AttentionParams` expects — so the partitioned
    executors can reuse these exact parameters with no copying.
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        rng: np.random.Generator | None = None,
        bias: bool = True,
        head_dim: int | None = None,
    ):
        """``head_dim`` defaults to ``hidden_size // num_heads`` (the standard
        ``H·F_H = F`` setting); passing it explicitly supports head-pruned
        models where ``H·F_H < F`` (the projection width shrinks while the
        residual width stays F)."""
        super().__init__()
        if head_dim is None:
            if hidden_size % num_heads != 0:
                raise ValueError(
                    f"hidden_size={hidden_size} not divisible by num_heads={num_heads}"
                )
            head_dim = hidden_size // num_heads
        self.hidden_size = hidden_size
        self.num_heads = num_heads
        self.head_dim = head_dim
        proj_width = num_heads * head_dim
        rng = rng if rng is not None else np.random.default_rng(0)
        self.query = Linear(hidden_size, proj_width, rng=rng, bias=bias)
        self.key = Linear(hidden_size, proj_width, rng=rng, bias=bias)
        self.value = Linear(hidden_size, proj_width, rng=rng, bias=bias)
        self.output = Linear(proj_width, hidden_size, rng=rng, bias=bias)
        self._qkv_cache: tuple | None = None
        self._fuse_qkv_storage()

    def _fuse_qkv_storage(self) -> None:
        """Re-home Q/K/V weights into one ``(F, 3·H·F_H)`` buffer.

        The three projection parameters become column views of a single
        fused matrix, so a decode step computes Q, K and V with *one* GEMM
        (``x @ W_QKV``) instead of three skinny ones, while every existing
        consumer (``attention_params``, tensor-parallel sharding, pruning)
        keeps seeing three ``(F, H·F_H)`` arrays.  In-place weight edits flow
        through the views; rebinding ``weight.data`` wholesale is detected by
        identity in :meth:`fused_qkv` and triggers a re-fuse.
        """
        proj_width = self.num_heads * self.head_dim
        fused_w = np.concatenate(
            [self.query.weight.data, self.key.weight.data, self.value.weight.data], axis=1
        )
        self.query.weight.data = fused_w[:, :proj_width]
        self.key.weight.data = fused_w[:, proj_width : 2 * proj_width]
        self.value.weight.data = fused_w[:, 2 * proj_width :]
        fused_b = None
        if self.query.bias is not None:
            fused_b = np.concatenate(
                [self.query.bias.data, self.key.bias.data, self.value.bias.data]
            )
            self.query.bias.data = fused_b[:proj_width]
            self.key.bias.data = fused_b[proj_width : 2 * proj_width]
            self.value.bias.data = fused_b[2 * proj_width :]
        self._qkv_cache = (
            self.query.weight.data,
            self.key.weight.data,
            self.value.weight.data,
            fused_w,
            fused_b,
        )

    def fused_qkv(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The fused ``(F, 3·H·F_H)`` weight (and bias), re-fused if stale.

        Staleness means some consumer rebound ``weight.data`` to a fresh
        array (:func:`~repro.compress.quantize_model_`, tests).  Re-fusing
        also re-homes the parameters as views again, so later in-place edits
        keep the fused buffer coherent.
        """
        cached = self._qkv_cache
        if (
            cached is not None
            and cached[0] is self.query.weight.data
            and cached[1] is self.key.weight.data
            and cached[2] is self.value.weight.data
        ):
            return cached[3], cached[4]
        self._fuse_qkv_storage()
        return self._qkv_cache[3], self._qkv_cache[4]

    def qkv_projection(self, x: np.ndarray) -> np.ndarray:
        """Fused ``x @ W_QKV + b_QKV`` → ``(N, 3·H·F_H)``, Q/K/V side by side.

        Column blocks ``[0:W)``, ``[W:2W)``, ``[2W:3W)`` (``W = H·F_H``) are
        exactly ``query(x)``, ``key(x)``, ``value(x)`` — one fat GEMM instead
        of three (identical FLOPs, one output allocation, better BLAS
        efficiency at decode-step widths).
        """
        w, b = self.fused_qkv()
        out = x @ w
        if b is not None:
            np.add(out, b, out=out)
        return out

    def attention_params(self) -> AttentionParams:
        """Zero-copy view of the Q/K/V projections for the order executors."""
        return AttentionParams(
            wq=self.query.weight.data,
            wk=self.key.weight.data,
            wv=self.value.weight.data,
            num_heads=self.num_heads,
            bq=self.query.bias.data if self.query.bias else None,
            bk=self.key.bias.data if self.key.bias else None,
            bv=self.value.bias.data if self.value.bias else None,
        )

    def forward(self, x: np.ndarray, causal: bool = False) -> np.ndarray:
        """Full-sequence attention: ``(N, F) → (N, F)``."""
        attended = attention_full(x, self.attention_params(), causal=causal)
        return self.output(attended)

    def __repr__(self) -> str:
        return (
            f"MultiHeadSelfAttention(F={self.hidden_size}, H={self.num_heads}, "
            f"F_H={self.head_dim})"
        )
