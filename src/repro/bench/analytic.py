"""Config-driven latency models — the systems' cost accounting, weight-free.

The inference systems in :mod:`repro.systems` compute real outputs, which
requires instantiating full model weights (1.3 GB for BERT-Large).  The
figure sweeps only need *latency*, which depends on shapes, the cluster and
the protocol — not on weight values.  This module re-derives each system's
exact :class:`LatencyBreakdown` from a :class:`TransformerConfig` alone.

Consistency is enforced by tests: for a small model, every function here
must produce the same phase-by-phase breakdown as the corresponding
system's ``run()``.
"""

from __future__ import annotations

from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core import complexity
from repro.core.complexity import EQ3
from repro.core.layer import OrderPolicy
from repro.core.partition import PartitionScheme, split_evenly
from repro.core.planner import device_layer_flops
from repro.models.config import TransformerConfig
from repro.systems.base import activation_bytes

__all__ = [
    "single_device_latency",
    "voltage_latency",
    "voltage_decode_latency",
    "tensor_parallel_latency",
    "pipeline_latency",
]


def _full_layer_flops(config: TransformerConfig, n: int) -> int:
    return complexity.layer_flops(
        n, n, config.hidden_size, config.head_dim, config.num_heads, config.ffn_dim, order=EQ3
    )


def _terminal_phases(
    sim: ClusterSim, latency: LatencyBreakdown, flops: int, name: str
) -> None:
    latency.add(name, "compute", sim.terminal_compute(flops))


def single_device_latency(
    config: TransformerConfig,
    n: int,
    cluster: ClusterSpec,
    pre_flops: int = 0,
    post_flops: int = 0,
) -> LatencyBreakdown:
    """Mirror of :class:`repro.systems.single_device.SingleDeviceSystem.run`."""
    sim = ClusterSim(cluster)
    latency = LatencyBreakdown()
    _terminal_phases(sim, latency, pre_flops, "preprocess (terminal)")
    wire = activation_bytes(n, config.hidden_size)
    latency.add("ship input to device", "comm", sim.point_to_point(wire))
    device = cluster.devices[0]
    layer_flops = _full_layer_flops(config, n)
    for index in range(config.num_layers):
        latency.add("layer compute", "compute", device.compute_seconds(layer_flops), layer=index)
    latency.add("return hidden to terminal", "comm", sim.point_to_point(wire))
    _terminal_phases(sim, latency, post_flops, "postprocess (terminal)")
    return latency


def voltage_latency(
    config: TransformerConfig,
    n: int,
    cluster: ClusterSpec,
    scheme: PartitionScheme | None = None,
    policy: OrderPolicy | None = None,
    pre_flops: int = 0,
    post_flops: int = 0,
    wire_itemsize: int = 4,
    overlap: bool = False,
) -> LatencyBreakdown:
    """Mirror of :class:`repro.systems.voltage.VoltageSystem.run` (Algorithm 2).

    ``wire_itemsize`` models compressed activation exchange (4 = float32,
    2 = float16, 1 = int8) — the input broadcast stays float32, matching
    the system.  ``overlap`` mirrors the system's overlapped mode: each
    inner All-Gather is charged only its *exposed* time
    ``max(0, comm - hideable)``, where the hideable compute is the minimum
    over devices of the next layer's own-partition Q projection.
    """
    sim = ClusterSim(cluster)
    policy = policy if policy is not None else OrderPolicy()
    scheme = scheme if scheme is not None else PartitionScheme.even(cluster.num_devices)
    parts = scheme.positions(n)
    f = config.hidden_size

    latency = LatencyBreakdown()
    _terminal_phases(sim, latency, pre_flops, "preprocess (terminal)")
    latency.add("broadcast input", "comm", sim.broadcast(activation_bytes(n, f)))
    for index in range(config.num_layers):
        flops = [
            device_layer_flops(config, n, part.length, policy=policy) for part in parts
        ]
        latency.add("partition compute", "compute", sim.compute_makespan(flops), layer=index)
        chunk_bytes = [
            activation_bytes(part.length, f, itemsize=wire_itemsize) for part in parts
        ]
        if index + 1 < config.num_layers:
            if overlap:
                # same scheme every layer here, so the next layer's own
                # partitions are this layer's — matching VoltageSystem.run
                hideable = min(
                    device.compute_seconds(
                        complexity.prologue_flops(
                            part.length, f, config.num_heads, config.head_dim
                        )
                    )
                    for device, part in zip(cluster.devices, parts)
                )
                exposed, full = sim.all_gather_overlapped(chunk_bytes, hideable)
                latency.add(
                    "all-gather (overlapped)", "comm", exposed,
                    layer=index, hidden_s=full - exposed,
                )
            else:
                latency.add("all-gather", "comm", sim.all_gather(chunk_bytes), layer=index)
        else:
            latency.add("gather to terminal", "comm", sim.gather(chunk_bytes), layer=index)
    _terminal_phases(sim, latency, post_flops, "postprocess (terminal)")
    return latency


def tensor_parallel_latency(
    config: TransformerConfig,
    n: int,
    cluster: ClusterSpec,
    pre_flops: int = 0,
    post_flops: int = 0,
) -> LatencyBreakdown:
    """Mirror of :class:`repro.systems.tensor_parallel.TensorParallelSystem.run`."""
    sim = ClusterSim(cluster)
    k = cluster.num_devices
    f, fh = config.hidden_size, config.head_dim
    per_head = complexity.gamma_eq3(n, n, f, fh).matmul
    head_counts = split_evenly(config.num_heads, k)
    ffn_counts = split_evenly(config.ffn_dim, k)
    device_flops = [
        heads * per_head + n * heads * fh * f + 2 * n * f * ffn
        for heads, ffn in zip(head_counts, ffn_counts)
    ]
    wire = activation_bytes(n, f)

    latency = LatencyBreakdown()
    _terminal_phases(sim, latency, pre_flops, "preprocess (terminal)")
    latency.add("broadcast input", "comm", sim.broadcast(wire))
    for index in range(config.num_layers):
        latency.add("shard compute", "compute", sim.compute_makespan(device_flops), layer=index)
        latency.add("2x all-reduce", "comm", 2 * sim.all_reduce(wire), layer=index)
    latency.add("return hidden to terminal", "comm", sim.point_to_point(wire))
    _terminal_phases(sim, latency, post_flops, "postprocess (terminal)")
    return latency


def pipeline_latency(
    config: TransformerConfig,
    n: int,
    cluster: ClusterSpec,
    pre_flops: int = 0,
    post_flops: int = 0,
) -> LatencyBreakdown:
    """Mirror of :class:`repro.systems.pipeline_parallel.PipelineParallelSystem.run`."""
    sim = ClusterSim(cluster)
    k = cluster.num_devices
    layer_flops = _full_layer_flops(config, n)
    wire = activation_bytes(n, config.hidden_size)
    stage_sizes = split_evenly(config.num_layers, k)

    latency = LatencyBreakdown()
    _terminal_phases(sim, latency, pre_flops, "preprocess (terminal)")
    latency.add("ship input to stage 0", "comm", sim.point_to_point(wire))
    for rank, size in enumerate(stage_sizes):
        device = cluster.devices[rank]
        latency.add(
            f"stage {rank} compute", "compute", device.compute_seconds(size * layer_flops)
        )
        hop = "return hidden to terminal" if rank == k - 1 else f"stage {rank}->{rank + 1}"
        latency.add(hop, "comm", sim.point_to_point(wire))
    _terminal_phases(sim, latency, post_flops, "postprocess (terminal)")
    return latency


def voltage_decode_latency(
    config: TransformerConfig,
    prompt_len: int,
    max_new_tokens: int,
    cluster: ClusterSpec,
    scheme: PartitionScheme | None = None,
    attention: str = "gathered",
    stats_itemsize: int = 4,
) -> LatencyBreakdown:
    """The timeline :func:`repro.systems.decode.run_decode` reports, weight-free.

    Not a mirror but the same object: both return
    :func:`repro.systems.decode.decode_timeline` — here over ``scheme``'s
    spans drawn on the request's full capacity (one static scheme for every
    layer), there over the system's per-layer spans.
    """
    from repro.systems.decode import decode_timeline

    scheme = scheme if scheme is not None else PartitionScheme.even(cluster.num_devices)
    capacity = min(prompt_len + max_new_tokens, config.max_positions)
    layer_parts = [scheme.positions(capacity)] * config.num_layers
    latency, _, _ = decode_timeline(
        config, layer_parts, ClusterSim(cluster), prompt_len, max_new_tokens,
        attention=attention, stats_itemsize=stats_itemsize,
    )
    return latency
