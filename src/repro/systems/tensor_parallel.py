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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cluster.process_runtime import resolve_runtime
from repro.cluster.runtime import CommStats
from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core import complexity
from repro.core.layer import LayerGeometry
from repro.core.orders import AttentionParams, attention_full
from repro.core.partition import split_evenly
from repro.models.base import TransformerModel
from repro.models.layer import TransformerLayer
from repro.systems.base import InferenceResult, InferenceSystem, activation_bytes, terminal_phase

__all__ = ["TensorParallelSystem", "tensor_parallel_timeline"]


def tensor_parallel_timeline(
    geometries: Sequence[LayerGeometry],
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
    wire = activation_bytes(n, geometries[0].hidden_size)
    allreduce_bytes = 0.0
    latency = LatencyBreakdown()
    terminal_phase(latency, sim, "preprocess", pre_flops)
    latency.add("broadcast input", "comm", sim.broadcast(wire))
    for index, geometry in enumerate(geometries):
        f, fh = geometry.hidden_size, geometry.head_dim
        per_head = complexity.gamma_eq3(n, n, f, fh).matmul  # full-N attention head
        flops = [
            heads * per_head + n * (heads * fh) * f + 2 * n * f * ffn
            for heads, ffn in zip(
                split_evenly(geometry.num_heads, k), split_evenly(geometry.ffn_dim, k)
            )
        ]
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
    """Split one layer's weights across ``k`` devices, Megatron-style.

    Head geometry comes from the attention module itself (not the config)
    so head-pruned layers shard correctly.
    """
    cfg = layer.config
    attn = layer.attention
    fh = attn.head_dim
    head_slices = _column_splits(attn.num_heads, k)
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
            self.geometries, x.shape[0], self.sim, **terminal
        )
        causal = self.model.config.is_causal
        act = self.model.layers[0].ffn.activate
        norm_style = self.model.config.norm_style
        for layer, shards in zip(self.model.layers, self.shards):
            attn_input = x if norm_style == "post" else layer.ln1(x)
            attn_sum = sum(_attention_partial(shard, attn_input, causal) for shard in shards)
            if norm_style == "post":
                y = layer.ln1(attn_sum + x)
                ffn_sum = sum(_ffn_partial(shard, y, act) for shard in shards)
                x = layer.ln2(y + ffn_sum)
            else:
                y = x + attn_sum
                ffn_input = layer.ln2(y)
                ffn_sum = sum(_ffn_partial(shard, ffn_input, act) for shard in shards)
                x = y + ffn_sum
        return self._result(x, latency, **comm_meta)

    # -- real distributed execution (threads or processes) -----------------------

    def execute_threaded(
        self, raw, overlap: bool = False
    ) -> tuple[np.ndarray, list[CommStats]]:
        """Run the shard/All-Reduce protocol on real thread workers.

        Kept as the historical entry point; equivalent to
        ``execute_distributed(raw, runtime="threaded", overlap=overlap)``.
        """
        return self.execute_distributed(raw, runtime="threaded", overlap=overlap)

    def execute_distributed(
        self, raw, runtime=None, overlap: bool = False
    ) -> tuple[np.ndarray, list[CommStats]]:
        """Run the shard/All-Reduce protocol on real concurrent workers.

        ``runtime`` selects the backend exactly as in
        :meth:`VoltageSystem.execute_distributed
        <repro.systems.voltage.VoltageSystem.execute_distributed>`:
        ``None``/``"threaded"``, ``"process"`` (one OS process per rank over
        loopback TCP), or a runtime instance — same worker body, so outputs
        are bit-identical across backends.

        With ``overlap``, the two per-layer All-Reduces go through the
        nonblocking ring (:meth:`~repro.cluster.runtime.WorkerContext.
        all_reduce_async`) and the residual-add/layer-norm epilogue is
        applied to each reduced row slice as it comes off the ring, while
        the remaining slices are still in flight.  Those epilogues are
        row-wise, and the async reduce accumulates partials in the same
        rank order as the blocking one, so the result is bit-identical to
        :meth:`run` either way.
        """
        x0 = self.model.preprocess(raw)
        causal = self.model.config.is_causal
        act = self.model.layers[0].ffn.activate
        norm_style = self.model.config.norm_style
        layers = list(self.model.layers)
        all_shards = self.shards

        def streamed(ctx, handle, epilogue, out):
            """Fill ``out`` slice-by-slice as reduced chunks arrive."""
            for src in handle.arrival_order():
                chunk = handle.chunk(src)
                lo, hi = handle.range_of(src)
                if hi > lo:
                    out[lo:hi] = epilogue(chunk, lo, hi)
            return out

        def worker_overlapped(ctx) -> np.ndarray:
            x = x0
            for layer, shards in zip(layers, all_shards):
                shard = shards[ctx.rank]
                attn_input = x if norm_style == "post" else layer.ln1(x)
                handle = ctx.all_reduce_async(
                    _attention_partial(shard, attn_input, causal)
                )
                y = np.empty_like(x)
                if norm_style == "post":
                    streamed(ctx, handle, lambda c, lo, hi: layer.ln1(c + x[lo:hi]), y)
                    ffn_input = y
                else:
                    ffn_input = np.empty_like(x)
                    def attn_epilogue(c, lo, hi):
                        y[lo:hi] = x[lo:hi] + c
                        return layer.ln2(y[lo:hi])
                    streamed(ctx, handle, attn_epilogue, ffn_input)
                handle = ctx.all_reduce_async(_ffn_partial(shard, ffn_input, act))
                x_next = np.empty_like(x)
                if norm_style == "post":
                    streamed(ctx, handle, lambda c, lo, hi: layer.ln2(y[lo:hi] + c), x_next)
                else:
                    streamed(ctx, handle, lambda c, lo, hi: y[lo:hi] + c, x_next)
                x = x_next
            return x

        def worker(ctx) -> np.ndarray:
            if overlap and ctx.world_size > 1:
                return worker_overlapped(ctx)
            x = x0
            for layer, shards in zip(layers, all_shards):
                shard = shards[ctx.rank]
                attn_input = x if norm_style == "post" else layer.ln1(x)
                attn_sum = ctx.all_reduce(_attention_partial(shard, attn_input, causal))
                if norm_style == "post":
                    y = layer.ln1(attn_sum + x)
                    ffn_sum = ctx.all_reduce(_ffn_partial(shard, y, act))
                    x = layer.ln2(y + ffn_sum)
                else:
                    y = x + attn_sum
                    ffn_sum = ctx.all_reduce(_ffn_partial(shard, layer.ln2(y), act))
                    x = y + ffn_sum
            return x

        results, stats = resolve_runtime(runtime, self.k).run(worker)
        hidden = results[0]
        for other in results[1:]:
            np.testing.assert_array_equal(hidden, other)
        output = self.model.postprocess(self.model.final_norm(hidden))
        return output, stats
