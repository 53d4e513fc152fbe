"""FLOP cost model for partitioned self-attention (paper Section IV).

This module encodes, symbolically, every computation-order cost the paper
derives:

- Theorem 1 — cost of the naive partitioned attention, Eq. (3);
- Eq. (6) — the two orders for the final ``S·x·W_V`` product;
- Eqs. (10)–(14) — the five orders for the score product
  ``x_p W_Q W_K^T x^T``;
- Theorem 2 — the closed-form rule selecting between Eq. (3) and Eq. (8);
- Theorem 3 — the O(1/K) total cost of Algorithm 1.

Everything here is *per attention head*, matching the paper's analysis
("the computation cost of the multi-head self-attention mechanism is exactly
the sum of the cost of every attention head").  Multi-head totals are the
per-head cost times ``H``; helper functions that aggregate a full layer or a
full model are provided at the bottom.

All counts are *multiply–accumulate style* FLOPs of the dominant matrix
products, exactly as the paper counts them (``Γ(xW_Q) = N·F·F_H``).  Linear
terms (softmax, scaling) are tracked separately because the paper lumps them
into ``O(PN)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "ScoreOrder",
    "ValueOrder",
    "AttentionOrder",
    "OrderCost",
    "score_order_cost",
    "value_order_cost",
    "attention_order_cost",
    "enumerate_attention_orders",
    "gamma_eq3",
    "gamma_eq8",
    "gamma_full_attention",
    "theorem2_prefers_reordered",
    "theorem2_threshold",
    "theorem3_min_partitions",
    "select_order",
    "matrix_chain_min_cost",
    "ffn_flops",
    "layer_flops",
    "prologue_flops",
    "model_flops",
    "voltage_comm_elements",
    "tensor_parallel_comm_elements",
]


class ScoreOrder(enum.Enum):
    """The five parenthesisations of ``x_p W_Q W_K^T x^T`` (Eqs. 10–14)."""

    QP_KT = "((xp·WQ)·WKᵀ)·xᵀ"          # Eq. (10) — used by Eq. (8)
    Q_K = "(xp·WQ)·(WKᵀ·xᵀ)"            # Eq. (11) — used by Eq. (3): Q and K in advance
    FUSED_QK_LEFT = "(xp·(WQ·WKᵀ))·xᵀ"  # Eq. (12) — precomputed WQ·WKᵀ, left-assoc
    FUSED_QK_RIGHT = "xp·((WQ·WKᵀ)·xᵀ)"  # Eq. (13) — precomputed WQ·WKᵀ, right-assoc
    RIGHT_TO_LEFT = "xp·(WQ·(WKᵀ·xᵀ))"  # Eq. (14)


class ValueOrder(enum.Enum):
    """The two parenthesisations of ``S·x·W_V`` (Eq. 6)."""

    V_FIRST = "S·(x·WV)"    # compute V in advance — used by Eq. (3)
    S_FIRST = "(S·x)·WV"    # leave W_V until last — used by Eq. (8)


@dataclass(frozen=True)
class AttentionOrder:
    """A complete strategy for computing one attention-head partition."""

    score: ScoreOrder
    value: ValueOrder

    @property
    def is_naive(self) -> bool:
        """True for the paper's Eq. (3): Q, K, V computed in advance."""
        return self.score is ScoreOrder.Q_K and self.value is ValueOrder.V_FIRST

    @property
    def is_reordered(self) -> bool:
        """True for the paper's Eq. (8)."""
        return self.score is ScoreOrder.QP_KT and self.value is ValueOrder.S_FIRST


#: The two candidates Theorem 2 proves are the only possible optima.
EQ3 = AttentionOrder(ScoreOrder.Q_K, ValueOrder.V_FIRST)
EQ8 = AttentionOrder(ScoreOrder.QP_KT, ValueOrder.S_FIRST)

__all__ += ["EQ3", "EQ8"]


@dataclass(frozen=True)
class OrderCost:
    """FLOP breakdown of a strategy: dominant matmul terms + linear terms."""

    matmul: int
    linear: int

    @property
    def total(self) -> int:
        return self.matmul + self.linear

    def __add__(self, other: "OrderCost") -> "OrderCost":
        return OrderCost(self.matmul + other.matmul, self.linear + other.linear)


def _check_dims(n: int, p: int, f: int, fh: int) -> None:
    if not (1 <= p <= n):
        raise ValueError(f"partition size must satisfy 1 <= P <= N, got P={p}, N={n}")
    if f < 1 or fh < 1:
        raise ValueError(f"feature dims must be positive, got F={f}, F_H={fh}")


def score_order_cost(order: ScoreOrder, n: int, p: int, f: int, fh: int) -> OrderCost:
    """Per-head matmul FLOPs of computing the ``(P, N)`` score matrix.

    Implements Eqs. (10)–(14) verbatim.  ``W_Q·W_K^T`` is treated as free in
    the FUSED orders because attention weights are inference-time constants
    (the paper precomputes the product) — but note the resulting ``F×F``
    operand is what makes those orders lose under multi-head settings.
    """
    _check_dims(n, p, f, fh)
    if order is ScoreOrder.QP_KT:
        matmul = 2 * p * f * fh + p * f * n            # Eq. (10)
    elif order is ScoreOrder.Q_K:
        matmul = p * f * fh + n * f * fh + p * n * fh  # Eq. (11)
    elif order is ScoreOrder.FUSED_QK_LEFT:
        matmul = p * f * f + p * f * n                 # Eq. (12)
    elif order is ScoreOrder.FUSED_QK_RIGHT:
        matmul = n * f * f + p * f * n                 # Eq. (13)
    elif order is ScoreOrder.RIGHT_TO_LEFT:
        matmul = 2 * n * f * fh + p * n * fh           # Eq. (14)
    else:  # pragma: no cover - exhaustive over enum
        raise ValueError(f"unknown score order: {order}")
    # scaling by 1/sqrt(F_H) and the softmax are linear in the P·N entries
    return OrderCost(matmul=matmul, linear=p * n)


def value_order_cost(order: ValueOrder, n: int, p: int, f: int, fh: int) -> OrderCost:
    """Per-head matmul FLOPs of ``S·x·W_V`` for an ``(P, N)`` score matrix S.

    Implements Eq. (6).
    """
    _check_dims(n, p, f, fh)
    if order is ValueOrder.V_FIRST:
        matmul = p * n * fh + n * f * fh
    elif order is ValueOrder.S_FIRST:
        matmul = p * n * f + p * f * fh
    else:  # pragma: no cover - exhaustive over enum
        raise ValueError(f"unknown value order: {order}")
    return OrderCost(matmul=matmul, linear=0)


def attention_order_cost(order: AttentionOrder, n: int, p: int, f: int, fh: int) -> OrderCost:
    """Total per-head cost of one complete strategy (score + value stages)."""
    return score_order_cost(order.score, n, p, f, fh) + value_order_cost(
        order.value, n, p, f, fh
    )


def enumerate_attention_orders(
    n: int, p: int, f: int, fh: int
) -> dict[AttentionOrder, OrderCost]:
    """All 10 complete strategies (5 score orders × 2 value orders).

    Used by the test-suite to verify Theorem 2: under the multi-head
    constraint ``F = H·F_H`` with ``H >= 2``, the argmin over this dict is
    always Eq. (3) or Eq. (8), and matches :func:`select_order`.
    """
    return {
        AttentionOrder(s, v): attention_order_cost(AttentionOrder(s, v), n, p, f, fh)
        for s in ScoreOrder
        for v in ValueOrder
    }


def gamma_eq3(n: int, p: int, f: int, fh: int) -> OrderCost:
    """Theorem 1: Γ(Eq. 3) = P·F·F_H + 2·N·F·F_H + 2·P·N·F_H + O(PN)."""
    return attention_order_cost(EQ3, n, p, f, fh)


def gamma_eq8(n: int, p: int, f: int, fh: int) -> OrderCost:
    """Theorem 3's branch: Γ(Eq. 8) = 3·P·F·F_H + 2·P·N·F + O(PN)."""
    return attention_order_cost(EQ8, n, p, f, fh)


def gamma_full_attention(n: int, f: int, fh: int) -> OrderCost:
    """Cost of a full (unpartitioned, P = N) attention head.

    Theorem 2 notes the original order Eq. (3) is optimal when P = N, so the
    full-output reference used for Fig. 6's speed-up ratios is Eq. (3) at
    P = N.
    """
    return gamma_eq3(n, n, f, fh)


def theorem2_threshold(f: int, fh: int) -> float:
    """The right-hand side of Theorem 2's condition: ``(F - F_H) / (F·F_H)``."""
    return (f - fh) / (f * fh)


def theorem2_prefers_reordered(n: int, p: int, f: int, fh: int) -> bool:
    """Theorem 2: True iff ``1/P - 1/N > (F - F_H)/(F·F_H)``.

    When True, Eq. (8) (reordered) has strictly lower complexity than
    Eq. (3); when False, Eq. (3) is at least as good.
    """
    _check_dims(n, p, f, fh)
    return (1.0 / p) - (1.0 / n) > theorem2_threshold(f, fh)


def theorem3_min_partitions(n: int, f: int, fh: int) -> float:
    """Theorem 3's switch point: Eq. (8) wins once ``K > (F-F_H)/(F·F_H)·N + 1``."""
    return theorem2_threshold(f, fh) * n + 1.0


def select_order(n: int, p: int, f: int, fh: int) -> AttentionOrder:
    """Algorithm 1's order choice (lines 3–7): Eq. (8) iff Theorem 2 fires."""
    return EQ8 if theorem2_prefers_reordered(n, p, f, fh) else EQ3


def matrix_chain_min_cost(dims: list[int]) -> int:
    """Classic matrix-chain DP: min scalar multiplications for A₁·…·Aₖ.

    ``dims`` has length k+1; matrix ``Aᵢ`` is ``dims[i-1] × dims[i]``.  The
    paper mentions this DP as the general (but too-slow-for-runtime)
    alternative to Theorem 2; the tests use it to independently confirm the
    score-order costs of Eqs. (10)–(14) for the non-fused orders.
    """
    k = len(dims) - 1
    if k < 1:
        raise ValueError("need at least one matrix")
    cost = [[0] * (k + 1) for _ in range(k + 1)]
    for span in range(2, k + 1):
        for i in range(1, k - span + 2):
            j = i + span - 1
            cost[i][j] = min(
                cost[i][s] + cost[s + 1][j] + dims[i - 1] * dims[s] * dims[j]
                for s in range(i, j)
            )
    return cost[1][k]


# ---------------------------------------------------------------------------
# Layer- and model-level aggregation
# ---------------------------------------------------------------------------


def ffn_flops(p: int, f: int, ffn_dim: int) -> int:
    """Matmul FLOPs of the position-wise FFN on ``p`` positions."""
    return 2 * p * f * ffn_dim


def layer_flops(
    n: int,
    p: int,
    f: int,
    fh: int,
    num_heads: int,
    ffn_dim: int,
    order: AttentionOrder | None = None,
) -> int:
    """Total matmul FLOPs for one partitioned transformer layer (Algorithm 1).

    Covers: H attention heads under ``order`` (auto-selected when None),
    the output projection ``Concat(...)·W_O`` (P·H·F_H·F), and the FFN —
    residual adds and layer norms are linear and excluded, as in the paper.
    """
    if order is None:
        order = select_order(n, p, f, fh)
    per_head = attention_order_cost(order, n, p, f, fh).matmul
    out_proj = p * (num_heads * fh) * f
    return num_heads * per_head + out_proj + ffn_flops(p, f, ffn_dim)


def prologue_flops(p: int, f: int, num_heads: int, fh: int) -> int:
    """Matmul FLOPs of the own-partition Q projection ``x_p · W_Q`` (all heads).

    This is the slice of next-layer work a device can run on rows it already
    holds *while* the All-Gather ring is still circulating — the "hideable
    compute" of the overlapped cost model.  It is the P·F·F_H-per-head term
    of Γ(Eq. 3)/Γ(Eq. 8) summed over heads: ``P·F·H·F_H`` MACs.  Zero for an
    empty partition (K > N leaves some devices without rows).
    """
    if p == 0:
        return 0
    _check_dims(max(p, 1), p, f, fh)
    return p * f * num_heads * fh


def model_flops(
    n: int,
    p: int,
    num_layers: int,
    f: int,
    fh: int,
    num_heads: int,
    ffn_dim: int,
    order: AttentionOrder | None = None,
) -> int:
    """Per-device matmul FLOPs for a whole ``num_layers`` stack."""
    return num_layers * layer_flops(n, p, f, fh, num_heads, ffn_dim, order=order)


# ---------------------------------------------------------------------------
# Communication volume (paper Section V-C)
# ---------------------------------------------------------------------------


def voltage_comm_elements(n: int, f: int, k: int) -> float:
    """Voltage per-device per-layer communication: ``(K-1)·N·F / K`` elements.

    One All-Gather of the position partitions reassembles the layer output on
    every device.
    """
    if k < 1:
        raise ValueError(f"device count must be >= 1, got {k}")
    return (k - 1) * n * f / k


def tensor_parallel_comm_elements(n: int, f: int, k: int) -> float:
    """Tensor parallelism per-device per-layer communication (Megatron-LM).

    Two ring All-Reduce operations per layer; each moves ``2·(K-1)·N·F/K``
    elements per device, for ``4·(K-1)·N·F/K`` total — exactly 4× Voltage's.
    """
    if k < 1:
        raise ValueError(f"device count must be >= 1, got {k}")
    return 4 * (k - 1) * n * f / k


def speedup_bound_naive(n: int, k: int, f: int, fh: int) -> float:
    """Asymptotic speed-up ceiling of the naive partition (Fig. 6 plateau).

    As K → ∞ the naive cost approaches its constant term 2·N·F·F_H, so the
    speed-up ratio saturates at Γ(full)/(2·N·F·F_H) regardless of K.  The
    finite-K value is Γ(full)/Γ(Eq. 3 at P=N/K).
    """
    full = gamma_full_attention(n, f, fh).total
    p = max(1, math.ceil(n / k))
    return full / gamma_eq3(n, p, f, fh).total


# ---------------------------------------------------------------------------
# Decode-phase Γ (autoregressive generation with a KV cache)
# ---------------------------------------------------------------------------
#
# Prefill is the paper's workload: P positions of an N-token pass.  A decode
# step is the degenerate P=1 partition of an N that grows by one per token —
# and with a KV cache the K/V projections of the N-1 old positions are
# amortised away entirely, which changes the optimal order:
#
# - Theorem 2 at P=1 says the *uncached* reordered Eq. (8) beats Eq. (3)
#   once ``1 - 1/N > (F-F_H)/(F·F_H)`` — for realistic dims that is nearly
#   every step, so a cache-less per-token loop would want Eq. (8).
# - But Eq. (8) wins precisely by never materialising K (it reassociates
#   the products so the ``(N, F_H)`` key matrix is skipped), and the KV
#   cache *is* the materialised K/V.  Caching therefore forces the Eq. (3)
#   ordering — whose cached per-step cost beats either uncached order for
#   every N past the prompt (the ablation in EXPERIMENTS.md tabulates all
#   three).


def decode_gamma_cached(t: int, f: int, fh: int, new_positions: int = 1) -> OrderCost:
    """Per-head cost of one KV-cached decode step against ``t`` total positions.

    ``new_positions`` (= P) rows are projected (fused QKV: ``3·P·F·F_H``)
    and attended against the full cached history (``2·P·t·F_H`` for the
    score and value products); the old positions' K/V cost is already paid.
    ``t`` counts positions *after* the append, matching the score-matrix
    width the executed step really multiplies.
    """
    p = new_positions
    if p < 1 or t < p:
        raise ValueError(f"need 1 <= new_positions <= t, got P={p}, t={t}")
    if f < 1 or fh < 1:
        raise ValueError(f"feature dims must be positive, got F={f}, F_H={fh}")
    return OrderCost(matmul=3 * p * f * fh + 2 * p * t * fh, linear=p * t)


def decode_layer_flops(
    t: int, f: int, fh: int, num_heads: int, ffn_dim: int, new_positions: int = 1
) -> int:
    """Matmul FLOPs of one cached transformer layer step (all heads + FFN)."""
    p = new_positions
    per_head = decode_gamma_cached(t, f, fh, new_positions=p).matmul
    out_proj = p * (num_heads * fh) * f
    return num_heads * per_head + out_proj + ffn_flops(p, f, ffn_dim)


def decode_step_flops(
    t: int,
    num_layers: int,
    f: int,
    fh: int,
    num_heads: int,
    ffn_dim: int,
    new_positions: int = 1,
) -> int:
    """Whole-stack matmul FLOPs of one cached decode step over
    ``new_positions`` rows, LM head excluded.

    The single-device figure, and a sharded-decode rank's for the rows it
    runs: all of them on a single-token step (a 1-row product cannot be
    split bit-identically), only its span's slice on a span-partitioned
    multi-row step (:func:`decode_rank_flops` prices one layer of it for
    the rank's own rows; ``systems.decode.decode_step_pricing`` adds the
    rank's vocab shard of the head).
    """
    return num_layers * decode_layer_flops(
        t, f, fh, num_heads, ffn_dim, new_positions=new_positions
    )


def decode_kv_gather_elements(t: int, num_heads: int, fh: int, k: int) -> float:
    """Per-device per-layer KV-shard All-Gather volume for one decode step.

    Each rank holds ``~t/K`` of the ``t`` cached positions and receives the
    other ranks' K and V shards: ``2·(K-1)/K·t·H·F_H`` elements.  This is
    the decode analogue of :func:`voltage_comm_elements` — note it scales
    with ``H·F_H`` (the cache width) instead of activations ``N·F``, and
    with the *cached* length, so it grows linearly over a generation.
    """
    if k < 1:
        raise ValueError(f"device count must be >= 1, got {k}")
    return 2 * (k - 1) * t * num_heads * fh / k


def decode_gamma_local(
    t_local: int, f: int, fh: int, new_positions: int = 1
) -> OrderCost:
    """Per-head cost of one *distributed-attention* decode step on one rank.

    The rank projects all ``P`` new rows (fused QKV — every rank needs every
    new row's query against its own shard) but scores them only
    against the ``t_local`` K/V rows its own shard holds: ``2·P·t_local·F_H``
    for the local score and partial-context products, vs the gathered path's
    ``2·P·t·F_H`` against the full history.  Summed over ranks the score
    work equals the gathered path's (``Σ t_local = t``), so per-rank
    attention FLOPs scale as O(1/K) under balanced spans.  The log-sum-exp
    combine itself is linear in ``K·P·F_H`` and lands in the linear term.
    """
    p = new_positions
    if p < 1:
        raise ValueError(f"new_positions must be >= 1, got {p}")
    if t_local < 0:
        raise ValueError(f"local rows must be >= 0, got {t_local}")
    if f < 1 or fh < 1:
        raise ValueError(f"feature dims must be positive, got F={f}, F_H={fh}")
    return OrderCost(matmul=3 * p * f * fh + 2 * p * t_local * fh, linear=p * t_local)


def decode_combine_elements(num_heads: int, fh: int, k: int, new_positions: int = 1) -> int:
    """Total combine all-gather volume per layer: ``K·H·(F_H + 2)·P`` elements.

    Every rank contributes one packed ``(o, m, l)`` tuple of
    ``H·(F_H + 2)`` elements per new position; the gathered total is
    **independent of the sequence length t** — the whole point of the
    distributed-attention decode.  Compare :func:`decode_kv_gather_elements`,
    which grows linearly in ``t``.
    """
    if k < 1:
        raise ValueError(f"device count must be >= 1, got {k}")
    if new_positions < 1:
        raise ValueError(f"new_positions must be >= 1, got {new_positions}")
    return k * num_heads * (fh + 2) * new_positions


def decode_comm_elements(
    mode: str, t: int, num_heads: int, fh: int, k: int, new_positions: int = 1
) -> float:
    """Per-device per-layer wire volume of one decode step under ``mode``.

    The received-elements convention of :func:`decode_kv_gather_elements`:
    a rank receives every peer's chunk.  ``gathered`` moves the K/V shards
    (``2(K-1)tHF_H/K``, grows with t); ``distributed`` moves the combine
    stats (``(K-1)·H·(F_H+2)·P``, flat in t).
    """
    if mode == "gathered":
        return decode_kv_gather_elements(t, num_heads, fh, k)
    if mode == "distributed":
        if k < 1:
            raise ValueError(f"device count must be >= 1, got {k}")
        return (k - 1) * num_heads * (fh + 2) * new_positions
    raise ValueError(f"decode attention mode must be one of {DECODE_ATTENTION_MODES}, got {mode!r}")


def decode_attention_crossover_length(fh: int, k: int) -> float:
    """The t beyond which distributed attention's wire volume wins.

    Per device per layer, gathered moves ``2(K-1)tHF_H/K`` elements and
    distributed moves ``(K-1)H(F_H+2)``; the ``(K-1)·H`` factors cancel and
    the crossover is ``t > K·(F_H+2)/(2·F_H)`` — roughly ``K/2`` steps for
    realistic head widths, i.e. almost immediately.  ``inf`` for K=1 (no
    communication either way, so distributed never strictly wins).
    """
    if k < 1:
        raise ValueError(f"device count must be >= 1, got {k}")
    if fh < 1:
        raise ValueError(f"head dim must be >= 1, got {fh}")
    if k == 1:
        return math.inf
    return k * (fh + 2) / (2 * fh)


#: The two decode attention modes every decode surface (``systems.decode``,
#: ``bench.analytic``, the verify scenario axis) accepts.
DECODE_ATTENTION_MODES = ("gathered", "distributed")


def decode_rank_flops(
    attention: str,
    t: int,
    f: int,
    fh: int,
    num_heads: int,
    ffn_dim: int,
    new_positions: int = 1,
    local_rows: int | None = None,
) -> int:
    """Matmul FLOPs of one layer of one decode step on one rank.

    ``systems.decode.decode_timeline`` — the one timeline ``run_decode`` and
    ``bench.analytic.voltage_decode_latency`` both return — prices each
    rank's layer stack with this (the rank's vocab shard of the LM head and
    the head exchange are priced beside it, in
    ``systems.decode.decode_step_pricing``).  ``new_positions`` is the rows
    the rank itself runs (its span's slice on a span-partitioned step).
    ``gathered`` attends every row against the full ``t``-row history;
    ``distributed`` only against the rank's ``local_rows`` populated shard
    rows (post-append), which it therefore requires.
    """
    p = new_positions
    if attention == "gathered":
        return decode_layer_flops(t, f, fh, num_heads, ffn_dim, new_positions=p)
    if attention != "distributed":
        raise ValueError(
            f"decode attention mode must be one of {DECODE_ATTENTION_MODES}, got {attention!r}"
        )
    if local_rows is None:
        raise ValueError("distributed decode_rank_flops needs the rank's local_rows")
    per_head = decode_gamma_local(local_rows, f, fh, new_positions=p).matmul
    out_proj = p * (num_heads * fh) * f
    return num_heads * per_head + out_proj + ffn_flops(p, f, ffn_dim)


def select_decode_order(t: int, f: int, fh: int, cached: bool = True) -> AttentionOrder:
    """Order choice for a one-token decode step at total length ``t``.

    With ``cached=True`` (the executed path) the materialised-K/V Eq. (3)
    ordering is forced — the cache stores exactly the tensors Eq. (8)
    exists to avoid.  With ``cached=False`` this is Algorithm 1 at P=1:
    Theorem 2 picks Eq. (8) once ``t`` passes
    :func:`decode_order_switch_length` — the optimal order *shifts* as the
    sequence grows, which is why decode needs its own Γ variant.
    """
    if cached:
        return EQ3
    return select_order(t, 1, f, fh)


def decode_order_switch_length(f: int, fh: int) -> float:
    """Sequence length where Theorem 2 starts preferring Eq. (8) at P=1.

    Solving ``1 - 1/N > (F-F_H)/(F·F_H)`` for N gives
    ``N > 1 / (1 - threshold)``; inf when the threshold reaches 1 (Eq. (3)
    then wins at every length).
    """
    threshold = theorem2_threshold(f, fh)
    if threshold >= 1.0:
        return math.inf
    return 1.0 / (1.0 - threshold)


__all__ += [
    "decode_gamma_cached",
    "decode_gamma_local",
    "decode_layer_flops",
    "decode_step_flops",
    "decode_kv_gather_elements",
    "decode_combine_elements",
    "decode_comm_elements",
    "decode_attention_crossover_length",
    "DECODE_ATTENTION_MODES",
    "decode_rank_flops",
    "select_decode_order",
    "decode_order_switch_length",
]


__all__.append("speedup_bound_naive")
