"""Algorithm 1: the partitioned transformer layer.

Given the whole input sequence ``x`` and a desired output partition, the
executor:

1. selects the cheapest attention computation order via Theorem 2
   (:func:`repro.core.complexity.select_order`),
2. computes the attention output for just those positions,
3. pushes the result through the output projection, residual links, layer
   norms and the FFN — all position-wise, so they run on the partition only.

The executor wraps an existing full :class:`repro.models.layer.TransformerLayer`
and *shares its parameters* — this mirrors Voltage's deployment model where
every device holds a complete replica of the weights (Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core import complexity
from repro.core.complexity import EQ3, EQ8, AttentionOrder
from repro.core.orders import attention_partition
from repro.core.partition import Partition

if TYPE_CHECKING:  # avoid a runtime circular import (models depends on core)
    from repro.models.config import TransformerConfig
    from repro.models.layer import TransformerLayer

__all__ = ["OrderPolicy", "PartitionedLayerExecutor", "full_layer_flops"]


@dataclass(frozen=True)
class OrderPolicy:
    """How the executor picks the attention computation order.

    ``mode`` is one of:

    - ``"adaptive"`` — Theorem 2's rule (Algorithm 1, lines 3–7); the default;
    - ``"naive"``    — always Eq. (3) (the "Naive" baseline of Fig. 6);
    - ``"reordered"``— always Eq. (8) (used by the order-choice ablation).
    """

    mode: str = "adaptive"

    def __post_init__(self) -> None:
        if self.mode not in ("adaptive", "naive", "reordered"):
            raise ValueError(f"unknown order policy {self.mode!r}")

    def order_for(self, n: int, p: int, f: int, fh: int) -> AttentionOrder:
        if self.mode == "naive":
            return EQ3
        if self.mode == "reordered":
            return EQ8
        return complexity.select_order(n, p, f, fh)

    def layer_flops(
        self, config: TransformerConfig, n: int, p: int, order: AttentionOrder | None = None
    ) -> int:
        """Matmul FLOPs (the paper's Γ accounting) one device spends on one
        of ``config``'s layers for a length-``p`` partition of ``n``
        positions, under ``order`` or this policy's choice; zero for an
        empty one."""
        if p == 0:
            return 0
        if order is None:
            order = self.order_for(n, p, config.hidden_size, config.head_dim)
        return complexity.layer_flops(
            n, p, config.hidden_size, config.head_dim, config.num_heads, config.ffn_dim,
            order=order,
        )


def full_layer_flops(config: TransformerConfig, n: int) -> int:
    """Matmul FLOPs of one unpartitioned layer: Eq. (3) at P = N — the
    single-device baseline, and one layer of a pipeline stage."""
    return OrderPolicy("naive").layer_flops(config, n, n)


class PartitionedLayerExecutor:
    """Executes one transformer layer for a position partition (Algorithm 1)."""

    def __init__(self, layer: TransformerLayer, policy: OrderPolicy | None = None):
        self.layer = layer
        self.config = layer.config
        self.policy = policy if policy is not None else OrderPolicy()

    def select_order(self, n: int, p: int) -> AttentionOrder:
        """The order Algorithm 1 would pick for an (N, P) instance."""
        if p < 1:
            raise ValueError(f"partition must be non-empty, got P={p}")
        return self.policy.order_for(n, p, self.config.hidden_size, self.config.head_dim)

    def forward_partition(
        self,
        x: np.ndarray,
        partition: Partition,
        order: AttentionOrder | None = None,
        *,
        normed: np.ndarray | None = None,
        qp: np.ndarray | None = None,
    ) -> np.ndarray:
        """Compute layer-output rows ``partition`` from the full input ``x``.

        Equivalent to ``layer.forward(x)[partition.start:partition.stop]`` up
        to float rounding — the property tests assert this for every order
        and both norm styles.

        ``normed`` and ``qp`` let an overlapped executor hand in work it
        already did while an All-Gather was in flight.  Both carry a strict
        bitwise contract: ``normed`` must equal ``layer.ln1(x)`` bit-for-bit
        (layer norm is row-wise, so per-chunk application satisfies this),
        and ``qp`` must be the attention input's own-partition query
        projection — the exact array ``F.linear(input[start:stop], W_Q,
        b_Q)`` — so the blocking and overlapped paths stay bit-identical.
        ``normed`` is ignored for post-LN layers (attention reads raw x).
        """
        n = x.shape[0]
        if partition.stop > n:
            raise ValueError(f"partition {partition} out of range for N={n}")
        if partition.is_empty:
            return np.zeros((0, self.config.hidden_size), dtype=x.dtype)
        if order is None:
            order = self.select_order(n, partition.length)

        layer = self.layer
        causal = self.config.is_causal
        params = layer.attention.attention_params()
        xp = x[partition.start : partition.stop]

        if self.config.norm_style == "post":
            attended = attention_partition(
                x, partition.start, partition.stop, params, order, causal=causal, qp=qp
            )
            projected = layer.attention.output(attended)
            y = layer.ln1(projected + xp)
            return layer.ln2(y + layer.ffn(y))

        # pre-LN (GPT-2 / ViT): attention reads LN(x), so normalise the full
        # sequence first (position-wise, O(N·F) — not a parallelism bottleneck)
        if normed is None:
            normed = layer.ln1(x)
        attended = attention_partition(
            normed, partition.start, partition.stop, params, order, causal=causal, qp=qp
        )
        y = xp + layer.attention.output(attended)
        return y + layer.ffn(layer.ln2(y))
