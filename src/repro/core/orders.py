"""Executable implementations of every attention computation order.

Section IV of the paper shows that the *parenthesisation* of the attention
matrix chain changes the FLOP count but not the result.  This module provides
batched-across-heads NumPy implementations of:

- the naive order, Eq. (3): compute ``Q_p, K, V`` in advance;
- the reordered form, Eq. (8): ``((x_p W_Q) W_K^T) x^T`` then ``(S x) W_V``;
- every other parenthesisation from Eqs. (10)–(14) and Eq. (6), so the test
  suite can confirm that all 10 strategies produce bit-comparable outputs
  and that their measured costs track :mod:`repro.core.complexity`.

All implementations use tensorised multi-head computation (paper footnote 1:
"the multi-head attention can be implemented through tensor multiplications
instead of iterating each head, but the computation complexities are the
same").

Bias handling
-------------
The paper's analysis omits biases, but real BERT/GPT-2/ViT weights have
them.  Two identities keep every order exact with biases present:

- ``(x W_K + b_K)^T = W_K^T x^T + b_K ⊗ 1``, so the reordered score picks up
  a rank-one column term ``(Q_p b_K)``;
- softmax rows sum to 1, so ``S (x W_V + b_V) = (S x) W_V + b_V`` — the value
  bias passes through unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.complexity import (
    EQ3,
    EQ8,
    AttentionOrder,
    ScoreOrder,
    ValueOrder,
    select_decode_order,
)
from repro.tensor import functional as F

__all__ = [
    "AttentionParams",
    "split_heads",
    "merge_heads",
    "attention_partition",
    "attention_eq3",
    "attention_eq8",
    "attention_full",
    "attention_decode_step",
]

#: Large negative value used to zero out masked attention logits in float32.
_MASK_VALUE = -1e30


@dataclass
class AttentionParams:
    """Projection weights of one multi-head self-attention block.

    Matrices are stored ``(F, H·F_H)`` with heads laid out contiguously along
    the output axis, matching the paper's ``W_Q, W_K, W_V ∈ R^{F×F_H}`` per
    head.  Biases are optional ``(H·F_H,)`` vectors.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    num_heads: int
    bq: np.ndarray | None = None
    bk: np.ndarray | None = None
    bv: np.ndarray | None = None

    def __post_init__(self) -> None:
        f, total = self.wq.shape
        if self.wk.shape != (f, total) or self.wv.shape != (f, total):
            raise ValueError(
                f"W_Q/W_K/W_V shapes disagree: {self.wq.shape}, {self.wk.shape}, {self.wv.shape}"
            )
        if total % self.num_heads != 0:
            raise ValueError(
                f"projection width {total} not divisible by num_heads={self.num_heads}"
            )
        # per-head contiguous views are rebuilt on every attention call in the
        # hot path of the reordered orders; memoise them (weights are
        # inference-time constants — the cache is invalidated by identity)
        object.__setattr__(self, "_head_cache", {})

    @property
    def feature_dim(self) -> int:
        """Input feature dimensionality F."""
        return self.wq.shape[0]

    @property
    def head_dim(self) -> int:
        """Per-head attention feature dimensionality F_H."""
        return self.wq.shape[1] // self.num_heads

    def weights_by_head(self, which: str) -> np.ndarray:
        """Return ``(H, F, F_H)`` view of W_Q / W_K / W_V (memoised)."""
        mat = {"q": self.wq, "k": self.wk, "v": self.wv}[which]
        cached = self._head_cache.get(which)
        if cached is not None and cached[0] is mat:
            return cached[1]
        f, total = mat.shape
        by_head = np.ascontiguousarray(
            mat.reshape(f, self.num_heads, self.head_dim).transpose(1, 0, 2)
        )
        self._head_cache[which] = (mat, by_head)
        return by_head


def split_heads(arr: np.ndarray, num_heads: int) -> np.ndarray:
    """``(N, H·F_H) → (H, N, F_H)``."""
    n, total = arr.shape
    head_dim = total // num_heads
    return arr.reshape(n, num_heads, head_dim).transpose(1, 0, 2)


def merge_heads(arr: np.ndarray) -> np.ndarray:
    """``(H, P, F_H) → (P, H·F_H)`` — the Concat of Eq. (2)."""
    h, p, head_dim = arr.shape
    return arr.transpose(1, 0, 2).reshape(p, h * head_dim)


def _softmax_scores(scores: np.ndarray, head_dim: int, mask: np.ndarray | None) -> np.ndarray:
    """Scale by 1/sqrt(F_H), apply the (optional) mask, softmax over keys."""
    scores = scores / math.sqrt(head_dim)
    if mask is not None:
        scores = np.where(mask, _MASK_VALUE, scores)
    return F.softmax(scores, axis=-1)


# ---------------------------------------------------------------------------
# Score-stage implementations: produce raw (H, P, N) logits (pre-scaling)
# ---------------------------------------------------------------------------


def _scores_q_k(
    xp: np.ndarray, x: np.ndarray, params: AttentionParams, qp: np.ndarray | None = None
) -> np.ndarray:
    """Eq. (11): compute Q_p and K in advance — the naive Eq. (3) path."""
    if qp is None:
        qp = F.linear(xp, params.wq, params.bq)
    k = F.linear(x, params.wk, params.bk)
    return split_heads(qp, params.num_heads) @ split_heads(k, params.num_heads).transpose(0, 2, 1)


def _scores_qp_kt(
    xp: np.ndarray, x: np.ndarray, params: AttentionParams, qp: np.ndarray | None = None
) -> np.ndarray:
    """Eq. (10): ``((x_p W_Q) W_K^T) x^T`` — the reordered Eq. (8) path.

    Never materialises K.  The key bias contributes the rank-one column term
    ``(Q_p b_K)`` per head.
    """
    if qp is None:
        qp = F.linear(xp, params.wq, params.bq)
    qp = split_heads(qp, params.num_heads)  # (H, P, F_H)
    wk_heads = params.weights_by_head("k")  # (H, F, F_H)
    projected = qp @ wk_heads.transpose(0, 2, 1)  # (H, P, F)
    h, p, f = projected.shape
    # fold heads into rows so the N-sized product is one fat GEMM rather
    # than H skinny ones (identical FLOPs, far better BLAS efficiency)
    scores = (projected.reshape(h * p, f) @ x.T).reshape(h, p, -1)  # (H, P, N)
    if params.bk is not None:
        bk_heads = params.bk.reshape(params.num_heads, params.head_dim)  # (H, F_H)
        scores = scores + np.einsum("hpd,hd->hp", qp, bk_heads)[:, :, None]
    return scores


def _scores_fused_left(
    xp: np.ndarray, x: np.ndarray, params: AttentionParams, qp: np.ndarray | None = None
) -> np.ndarray:
    """Eq. (12): ``(x_p (W_Q W_K^T)) x^T`` with the F×F product precomputed.

    Fused orders never materialise Q_p, so a precomputed ``qp`` is ignored.
    """
    wq_heads = params.weights_by_head("q")
    wk_heads = params.weights_by_head("k")
    fused = wq_heads @ wk_heads.transpose(0, 2, 1)  # (H, F, F) — the oversized operand
    scores = (xp @ fused) @ x.T  # (H, P, F) @ (F, N)
    return scores + _bias_correction(xp, x, params)


def _scores_fused_right(
    xp: np.ndarray, x: np.ndarray, params: AttentionParams, qp: np.ndarray | None = None
) -> np.ndarray:
    """Eq. (13): ``x_p ((W_Q W_K^T) x^T)``."""
    wq_heads = params.weights_by_head("q")
    wk_heads = params.weights_by_head("k")
    fused = wq_heads @ wk_heads.transpose(0, 2, 1)  # (H, F, F)
    scores = xp @ (fused @ x.T)  # (H, F, N) built first
    return scores + _bias_correction(xp, x, params)


def _scores_right_to_left(
    xp: np.ndarray, x: np.ndarray, params: AttentionParams, qp: np.ndarray | None = None
) -> np.ndarray:
    """Eq. (14): ``x_p (W_Q (W_K^T x^T))``."""
    wq_heads = params.weights_by_head("q")
    wk_heads = params.weights_by_head("k")
    kt_xt = wk_heads.transpose(0, 2, 1) @ x.T[None, :, :]  # (H, F_H, N)
    scores = xp @ (wq_heads @ kt_xt)  # (H, F, N) built first
    return scores + _bias_correction(xp, x, params)


def _bias_correction(xp: np.ndarray, x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Bias terms for the fused orders, which bypass explicit Q_p and K.

    scores = (x_p W_Q + b_Q)(x W_K + b_K)^T expands into the pure product
    plus three bias terms; the fused implementations compute only the pure
    product, so this reconstructs the remainder.  Returns 0.0 when biases
    are absent so broadcasting is a no-op.
    """
    if params.bq is None and params.bk is None:
        return np.float32(0.0)
    h, head_dim = params.num_heads, params.head_dim
    # zeros() must match the weight dtype — a bare np.zeros is float64 and
    # would silently upcast float32 scores when only one bias is present
    dt = params.wq.dtype
    bq = params.bq.reshape(h, head_dim) if params.bq is not None else np.zeros((h, head_dim), dt)
    bk = params.bk.reshape(h, head_dim) if params.bk is not None else np.zeros((h, head_dim), dt)
    wq_heads = params.weights_by_head("q")
    wk_heads = params.weights_by_head("k")
    # b_Q (x W_K)^T : (H, 1, N) broadcast over query rows
    term_q = np.einsum("hd,hnd->hn", bq, x @ wk_heads)[:, None, :]
    # (x_p W_Q) b_K : (H, P, 1) broadcast over key columns
    term_k = np.einsum("hpd,hd->hp", xp @ wq_heads, bk)[:, :, None]
    term_qk = np.einsum("hd,hd->h", bq, bk)[:, None, None]
    return term_q + term_k + term_qk


_SCORE_IMPLS = {
    ScoreOrder.Q_K: _scores_q_k,
    ScoreOrder.QP_KT: _scores_qp_kt,
    ScoreOrder.FUSED_QK_LEFT: _scores_fused_left,
    ScoreOrder.FUSED_QK_RIGHT: _scores_fused_right,
    ScoreOrder.RIGHT_TO_LEFT: _scores_right_to_left,
}


# ---------------------------------------------------------------------------
# Value-stage implementations: (H, P, N) attention weights -> (P, H·F_H)
# ---------------------------------------------------------------------------


def _value_v_first(s: np.ndarray, x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Eq. (6) first form: ``S (x W_V)`` — compute V in advance."""
    v = split_heads(F.linear(x, params.wv, params.bv), params.num_heads)  # (H, N, F_H)
    return merge_heads(s @ v)


def _value_s_first(s: np.ndarray, x: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Eq. (6) second form: ``(S x) W_V`` — W_V applied last.

    The value bias passes through unchanged because softmax rows sum to 1.
    """
    h, p, n = s.shape
    # same fat-GEMM fold as the score stage: (H·P, N) @ (N, F)
    mixed = (np.ascontiguousarray(s).reshape(h * p, n) @ x).reshape(h, p, -1)  # (H, P, F)
    out = mixed @ params.weights_by_head("v")  # (H, P, F_H)
    merged = merge_heads(out)
    if params.bv is not None:
        merged = merged + params.bv
    return merged


_VALUE_IMPLS = {
    ValueOrder.V_FIRST: _value_v_first,
    ValueOrder.S_FIRST: _value_s_first,
}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def attention_partition(
    x: np.ndarray,
    start: int,
    stop: int,
    params: AttentionParams,
    order: AttentionOrder,
    causal: bool = False,
    mask: np.ndarray | None = None,
    qp: np.ndarray | None = None,
) -> np.ndarray:
    """Compute attention output rows ``[start, stop)`` under a given order.

    Parameters
    ----------
    x:
        Full input sequence ``(N, F)`` — both orders need all of it.
    start, stop:
        The position range of the desired output partition ``A_p(x)``.
    params:
        Multi-head projection weights.
    order:
        Which parenthesisation to execute (any of the 10 strategies).
    causal:
        Build a causal mask with the correct absolute offset (GPT-2-style
        decoder layers).  Mutually exclusive with ``mask``.
    mask:
        Explicit boolean ``(P, N)`` mask, True = blocked.
    qp:
        Optional precomputed own-partition query projection
        ``F.linear(x[start:stop], W_Q, b_Q)``, shape ``(P, H·F_H)``.
        Contract: it must be that exact value bitwise (same operands, same
        GEMM shape), which is what lets the overlapped executors project Q
        while an All-Gather is in flight and stay bit-identical.  Orders
        that never materialise Q_p (the fused ones) ignore it.

    Returns
    -------
    ``(P, H·F_H)`` — identical (up to float rounding) for every order.
    """
    n = x.shape[0]
    if not (0 <= start < stop <= n):
        raise ValueError(f"invalid partition [{start}, {stop}) for N={n}")
    if causal and mask is not None:
        raise ValueError("pass either causal=True or an explicit mask, not both")
    xp = x[start:stop]
    if qp is not None and qp.shape != (stop - start, params.wq.shape[1]):
        raise ValueError(
            f"precomputed qp has shape {qp.shape}, expected "
            f"{(stop - start, params.wq.shape[1])}"
        )
    if causal:
        mask = F.causal_mask(stop - start, n, offset=start)
    raw_scores = _SCORE_IMPLS[order.score](xp, x, params, qp=qp)
    s = _softmax_scores(raw_scores, params.head_dim, mask)
    return _VALUE_IMPLS[order.value](s, x, params)


def attention_eq3(
    x: np.ndarray,
    start: int,
    stop: int,
    params: AttentionParams,
    causal: bool = False,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """The naive partitioned attention, Eq. (3)."""
    return attention_partition(x, start, stop, params, EQ3, causal=causal, mask=mask)


def attention_eq8(
    x: np.ndarray,
    start: int,
    stop: int,
    params: AttentionParams,
    causal: bool = False,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """The reordered partitioned attention, Eq. (8)."""
    return attention_partition(x, start, stop, params, EQ8, causal=causal, mask=mask)


def attention_full(
    x: np.ndarray,
    params: AttentionParams,
    causal: bool = False,
) -> np.ndarray:
    """Full-output multi-head attention (P = N) via the standard order."""
    return attention_eq3(x, 0, x.shape[0], params, causal=causal)


def attention_decode_step(
    x: np.ndarray,
    params: AttentionParams,
    order: AttentionOrder | None = None,
) -> np.ndarray:
    """Causal attention output for the *newest* position only — a P=1 partition.

    The cache-less decode step: given the full ``(N, F)`` hidden states, it
    computes row N-1's attention under ``order`` (auto-selected per Theorem 2
    at P=1 when None — the choice shifts from Eq. (3) to Eq. (8) as N passes
    :func:`repro.core.complexity.decode_order_switch_length`, because a
    growing N makes the partition relatively ever smaller).  This is what a
    per-token loop without a KV cache would run; no figure or runtime path
    calls it (the tests pin it to the last row of :func:`attention_full`).
    The executed distributed decode keeps the cache-compatible Eq. (3)
    ordering (see
    :func:`~repro.core.complexity.select_decode_order`).
    """
    n = x.shape[0]
    if order is None:
        order = select_decode_order(n, x.shape[1], params.head_dim, cached=False)
    return attention_partition(x, n - 1, n, params, order, causal=True)
