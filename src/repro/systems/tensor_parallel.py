"""Tensor parallelism (Megatron-LM style) — the paper's main competitor.

Each device holds a *shard* of every layer's weights: a subset of attention
heads (column-sharded Q/K/V, row-sharded output projection) and a slice of
the FFN (column-sharded fc1, row-sharded fc2).  Producing the full layer
output requires summing the per-device partials — one All-Reduce after the
attention block and one after the FFN (Fig. 2), which is exactly the
``4(K-1)NF/K`` per-layer traffic of Section V-C.

Head counts need not divide evenly: heads and FFN columns are split with
``array_split`` semantics, and devices left without heads contribute zero
partials (this is what lets the K=5 point of Fig. 4 exist for H=16 models).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.collectives import all_reduce_arrays
from repro.cluster.runtime import CommStats
from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core import complexity
from repro.core.orders import AttentionParams, attention_full
from repro.core.partition import split_evenly
from repro.models.base import TransformerModel
from repro.models.config import TransformerConfig
from repro.models.layer import TransformerLayer
from repro.systems.base import InferenceResult, InferenceSystem, activation_bytes, terminal_phase

__all__ = ["TensorParallelSystem", "tensor_parallel_layers", "tensor_parallel_timeline"]


def tensor_parallel_timeline(
    config: TransformerConfig,
    n: int,
    sim: ClusterSim,
    pre_flops: int = 0,
    post_flops: int = 0,
) -> tuple[LatencyBreakdown, dict]:
    """The latency timeline of one tensor-parallel request — shapes only;
    what :meth:`TensorParallelSystem.run` and ``bench.analytic`` both return,
    with the All-Reduce bytes one device moves as meta.

    Device ``d`` holds ``split_evenly`` shares of every layer's heads and
    FFN columns (exactly :func:`shard_layer`'s split): full-N attention for
    its heads, its rows of W_O, its slice of both FFN matmuls.
    """
    k = sim.k
    f, fh = config.hidden_size, config.head_dim
    wire = activation_bytes(n, f)
    per_head = complexity.gamma_eq3(n, n, f, fh).matmul  # full-N attention head
    flops = [
        heads * per_head + n * (heads * fh) * f + 2 * n * f * ffn
        for heads, ffn in zip(split_evenly(config.num_heads, k), split_evenly(config.ffn_dim, k))
    ]
    allreduce_bytes = 0.0
    latency = LatencyBreakdown()
    terminal_phase(latency, sim, "preprocess", pre_flops)
    latency.add("broadcast input", "comm", sim.broadcast(wire))
    for index in range(config.num_layers):
        latency.add("shard compute", "compute", sim.compute_makespan(flops), layer=index)
        # two All-Reduces per layer (Fig. 2)
        latency.add("2x all-reduce", "comm", 2 * sim.all_reduce(wire), layer=index)
        allreduce_bytes += 2 * (2 * (k - 1) * wire / k)
    latency.add("return hidden to terminal", "comm", sim.point_to_point(wire))
    terminal_phase(latency, sim, "postprocess", post_flops)
    return latency, {"allreduce_bytes_per_device": allreduce_bytes}


@dataclass
class _LayerShard:
    """One device's slice of one transformer layer."""

    num_heads: int          # local head count (may be zero)
    wq: np.ndarray          # (F, local_heads·F_H)
    wk: np.ndarray
    wv: np.ndarray
    bq: np.ndarray | None
    bk: np.ndarray | None
    bv: np.ndarray | None
    wo: np.ndarray          # (local_heads·F_H, F) — row shard
    bo: np.ndarray | None   # applied on exactly one device (partials are summed)
    fc1_w: np.ndarray       # (F, local_ffn) — column shard
    fc1_b: np.ndarray | None
    fc2_w: np.ndarray       # (local_ffn, F) — row shard
    fc2_b: np.ndarray | None  # applied on exactly one device

    @property
    def local_ffn(self) -> int:
        return self.fc1_w.shape[1]


def _column_splits(total: int, k: int) -> list[slice]:
    """array_split boundaries as slices (first ``total % k`` parts get +1)."""
    slices, start = [], 0
    for width in split_evenly(total, k):
        slices.append(slice(start, start + width))
        start += width
    return slices


def shard_layer(layer: TransformerLayer, k: int) -> list[_LayerShard]:
    """Split one layer's weights across ``k`` devices, Megatron-style."""
    cfg = layer.config
    attn = layer.attention
    fh = cfg.head_dim
    head_slices = _column_splits(cfg.num_heads, k)
    ffn_slices = _column_splits(cfg.ffn_dim, k)

    def col(weight: np.ndarray, head_slice: slice) -> np.ndarray:
        return weight[:, head_slice.start * fh : head_slice.stop * fh]

    def colb(bias, head_slice: slice):
        return bias.data[head_slice.start * fh : head_slice.stop * fh] if bias else None

    shards = []
    for rank in range(k):
        hs, fs = head_slices[rank], ffn_slices[rank]
        shards.append(
            _LayerShard(
                num_heads=hs.stop - hs.start,
                wq=col(attn.query.weight.data, hs),
                wk=col(attn.key.weight.data, hs),
                wv=col(attn.value.weight.data, hs),
                bq=colb(attn.query.bias, hs),
                bk=colb(attn.key.bias, hs),
                bv=colb(attn.value.bias, hs),
                wo=attn.output.weight.data[hs.start * fh : hs.stop * fh, :],
                bo=attn.output.bias.data if (rank == 0 and attn.output.bias) else None,
                fc1_w=layer.ffn.fc1.weight.data[:, fs],
                fc1_b=layer.ffn.fc1.bias.data[fs] if layer.ffn.fc1.bias else None,
                fc2_w=layer.ffn.fc2.weight.data[fs, :],
                fc2_b=layer.ffn.fc2.bias.data if (rank == 0 and layer.ffn.fc2.bias) else None,
            )
        )
    return shards


def _attention_partial(
    shard: _LayerShard, x: np.ndarray, causal: bool
) -> np.ndarray:
    """This device's contribution to MultiHead(x)·W_O — zero if no heads."""
    n, f = x.shape
    if shard.num_heads == 0:
        return np.zeros((n, f), dtype=x.dtype)
    params = AttentionParams(
        wq=shard.wq, wk=shard.wk, wv=shard.wv,
        num_heads=shard.num_heads, bq=shard.bq, bk=shard.bk, bv=shard.bv,
    )
    attended = attention_full(x, params, causal=causal)  # (N, local_heads·F_H)
    partial = attended @ shard.wo
    if shard.bo is not None:
        partial = partial + shard.bo
    return partial


def _ffn_partial(shard: _LayerShard, y: np.ndarray, act) -> np.ndarray:
    """This device's FFN partial: act(y·fc1_shard)·fc2_shard."""
    hidden = y @ shard.fc1_w
    if shard.fc1_b is not None:
        hidden = hidden + shard.fc1_b
    partial = act(hidden) @ shard.fc2_w
    if shard.fc2_b is not None:
        partial = partial + shard.fc2_b
    return partial


def host_all_reduce(partials: list[np.ndarray], epilogue) -> np.ndarray:
    """The host emulation's exchange for :func:`tensor_parallel_layers`:
    owning every rank, the All-Reduce is :func:`all_reduce_arrays` (the
    threaded collective's rank-order copy-then-add), its epilogue applied to
    all rows at once."""
    return epilogue(all_reduce_arrays(partials), 0, len(partials[0]))


def tensor_parallel_layers(
    x: np.ndarray, layers, shards, ranks, all_reduce=host_all_reduce
) -> np.ndarray:
    """The shard/All-Reduce layer loop — the one tensor-parallel rank body —
    over the shards of the ranks its caller owns.

    Per layer each owned rank computes its attention partial, then its FFN
    partial, and ``all_reduce(partials, epilogue)`` sums the owned partials
    with every other rank's in rank order and returns
    ``epilogue(reduced[lo:hi], lo, hi)`` over all rows: the row-wise
    residual-add/layer-norm that follows each All-Reduce (Fig. 2), which a
    streaming reduce applies slice by slice as reduced rows arrive.
    :meth:`TensorParallelSystem.run` owns every rank and reduces with
    :func:`host_all_reduce`; a runtime rank owns one and reduces with
    ``ctx.all_reduce`` or the ``all_reduce_async`` stream
    (:meth:`TensorParallelSystem.execute_distributed`).
    """
    for layer, layer_shards in zip(layers, shards):
        post = layer.config.norm_style == "post"
        owned = [layer_shards[rank] for rank in ranks]
        after_attention, after_ffn = _epilogues(layer, x, post)
        attn_input = x if post else layer.ln1(x)
        ffn_input = all_reduce(
            [_attention_partial(shard, attn_input, layer.config.is_causal) for shard in owned],
            after_attention,
        )
        x = all_reduce(
            [_ffn_partial(shard, ffn_input, layer.ffn.activate) for shard in owned], after_ffn
        )
    return x


def _epilogues(layer: TransformerLayer, x: np.ndarray, post: bool):
    """One layer's row-wise epilogues, each over reduced rows ``[lo, hi)``:
    after the attention All-Reduce, write the residual stream and return
    the FFN's input rows; after the FFN's, return the layer's output rows."""
    y = np.empty_like(x)  # the residual stream between the two sublayers

    def after_attention(reduced, lo, hi):
        y[lo:hi] = layer.ln1(reduced + x[lo:hi]) if post else x[lo:hi] + reduced
        return y[lo:hi] if post else layer.ln2(y[lo:hi])

    def after_ffn(reduced, lo, hi):
        out = y[lo:hi] + reduced
        return layer.ln2(out) if post else out

    return after_attention, after_ffn


class TensorParallelSystem(InferenceSystem):
    """Inference with per-layer weight sharding and two All-Reduces."""

    name = "tensor-parallel"

    def __init__(self, model: TransformerModel, cluster: ClusterSpec):
        super().__init__(model, cluster)
        self.shards: list[list[_LayerShard]] = [
            shard_layer(layer, self.k) for layer in model.layers
        ]

    # -- host-emulated execution with simulated latency -------------------------

    def run(self, raw) -> InferenceResult:
        x, terminal = self._preprocess(raw)
        latency, comm_meta = tensor_parallel_timeline(
            self.model.config, x.shape[0], self.sim, **terminal
        )
        hidden = tensor_parallel_layers(x, self.model.layers, self.shards, range(self.k))
        return self._result(hidden, latency, **comm_meta)

    # -- real distributed execution (threads or processes) -----------------------

    def execute_distributed(
        self, raw, runtime=None, overlap: bool = False
    ) -> tuple[np.ndarray, list[CommStats]]:
        """Run the shard/All-Reduce protocol on real concurrent workers.

        ``runtime`` selects the backend exactly as in
        :meth:`VoltageSystem.execute_distributed
        <repro.systems.voltage.VoltageSystem.execute_distributed>`:
        ``None``/``"threaded"``, ``"process"`` (one OS process per rank over
        loopback TCP), or a runtime instance — same worker body, so outputs
        are bit-identical across backends, and likewise one command to a
        rank service.  That body is :func:`tensor_parallel_layers`, the one
        :meth:`run` runs, over the worker's own shards.

        With ``overlap``, the two per-layer All-Reduces go through the
        nonblocking ring (:meth:`~repro.cluster.runtime.WorkerContext.
        all_reduce_async`) and the residual-add/layer-norm epilogue is
        applied to each reduced row slice as it comes off the ring, while
        the remaining slices are still in flight.  Those epilogues are
        row-wise, and the async reduce accumulates partials in the same
        rank order as the blocking one, so the result is bit-identical to
        :meth:`run` either way.
        """
        def rank_forward(ctx, x: np.ndarray) -> np.ndarray:
            def blocking(partials, epilogue):
                (partial,) = partials  # a rank owns exactly its own shard
                return epilogue(ctx.all_reduce(partial), 0, len(partial))

            def streamed(partials, epilogue):
                """Fill the result slice by slice as reduced chunks arrive."""
                (partial,) = partials
                handle = ctx.all_reduce_async(partial)
                out = np.empty_like(partial)
                for src in handle.arrival_order():
                    chunk = handle.chunk(src)
                    lo, hi = handle.range_of(src)
                    if hi > lo:
                        out[lo:hi] = epilogue(chunk, lo, hi)
                return out

            return tensor_parallel_layers(
                x, self.model.layers, self.shards, [ctx.rank],
                streamed if overlap and ctx.world_size > 1 else blocking,
            )

        return self._execute(rank_forward, self.model.preprocess(raw), runtime)
