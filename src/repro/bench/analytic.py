"""Config-driven latency models — the systems' timelines, weight-free.

The inference systems in :mod:`repro.systems` compute real outputs, which
requires instantiating full model weights (1.3 GB for BERT-Large).  The
figure sweeps only need *latency*, which depends on shapes, the cluster and
the protocol — not on weight values.  Each protocol's phase sequence is
spelled once, as a shapes-only timeline function beside its system
(``voltage_timeline``, ``single_device_timeline``, ...) over a
:class:`TransformerConfig`; ``System.run()`` attaches that timeline to its
emulated output over its model's config, and every function here returns
*the same function's* result over the config it is handed.  Nothing is
mirrored, so there is nothing to keep in sync.
"""

from __future__ import annotations

from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core.layer import OrderPolicy
from repro.core.partition import Partition, PartitionScheme
from repro.core.schedule import LayerSchedule
from repro.models.config import TransformerConfig
from repro.systems import decode, pipeline_parallel, single_device, tensor_parallel, voltage

__all__ = [
    "single_device_latency",
    "voltage_latency",
    "voltage_decode_latency",
    "tensor_parallel_latency",
    "pipeline_latency",
]


def _layer_parts(
    scheme: PartitionScheme | LayerSchedule | None, num_layers: int, cluster: ClusterSpec, n: int
) -> list[list[Partition]]:
    """Per-layer partitions of ``n`` positions: one static scheme for every
    layer (even 1/K when None), or a :class:`LayerSchedule`'s per-layer ones."""
    if scheme is None:
        scheme = PartitionScheme.even(cluster.num_devices)
    schedule = scheme if isinstance(scheme, LayerSchedule) else LayerSchedule(scheme)
    return [schedule.scheme_for_layer(i).positions(n) for i in range(num_layers)]


def single_device_latency(
    config: TransformerConfig,
    n: int,
    cluster: ClusterSpec,
    pre_flops: int = 0,
    post_flops: int = 0,
) -> LatencyBreakdown:
    """What :class:`repro.systems.single_device.SingleDeviceSystem.run` reports."""
    return single_device.single_device_timeline(
        config, n, ClusterSim(cluster), pre_flops=pre_flops, post_flops=post_flops
    )


def voltage_latency(
    config: TransformerConfig,
    n: int,
    cluster: ClusterSpec,
    scheme: PartitionScheme | LayerSchedule | None = None,
    policy: OrderPolicy | None = None,
    pre_flops: int = 0,
    post_flops: int = 0,
    wire_itemsize: int = 4,
    overlap: bool = False,
) -> LatencyBreakdown:
    """What :class:`repro.systems.voltage.VoltageSystem.run` reports (Algorithm 2).

    ``wire_itemsize`` models compressed activation exchange (4 = float32,
    2 = float16, 1 = int8); ``overlap`` charges each inner All-Gather only
    its exposed time — see :func:`~repro.systems.voltage.voltage_timeline`.
    """
    latency, _ = voltage.voltage_timeline(
        config, _layer_parts(scheme, config.num_layers, cluster, n), ClusterSim(cluster),
        policy=policy, wire_itemsize=wire_itemsize, overlap=overlap,
        pre_flops=pre_flops, post_flops=post_flops,
    )
    return latency


def tensor_parallel_latency(
    config: TransformerConfig,
    n: int,
    cluster: ClusterSpec,
    pre_flops: int = 0,
    post_flops: int = 0,
) -> LatencyBreakdown:
    """What :class:`repro.systems.tensor_parallel.TensorParallelSystem.run` reports."""
    latency, _ = tensor_parallel.tensor_parallel_timeline(
        config, n, ClusterSim(cluster), pre_flops=pre_flops, post_flops=post_flops
    )
    return latency


def pipeline_latency(
    config: TransformerConfig,
    n: int,
    cluster: ClusterSpec,
    pre_flops: int = 0,
    post_flops: int = 0,
) -> LatencyBreakdown:
    """What :class:`repro.systems.pipeline_parallel.PipelineParallelSystem.run` reports."""
    latency, _, _ = pipeline_parallel.pipeline_timeline(
        config, n, ClusterSim(cluster), pre_flops=pre_flops, post_flops=post_flops
    )
    return latency


def voltage_decode_latency(
    config: TransformerConfig,
    prompt_len: int,
    max_new_tokens: int,
    cluster: ClusterSpec,
    scheme: PartitionScheme | LayerSchedule | None = None,
    attention: str = "gathered",
    stats_itemsize: int = 4,
) -> LatencyBreakdown:
    """What :func:`repro.systems.decode.run_decode` reports, weight-free:
    :func:`repro.systems.decode.decode_timeline` over ``scheme``'s spans
    drawn on the request's full capacity."""
    capacity = min(prompt_len + max_new_tokens, config.max_positions)
    latency, *_ = decode.decode_timeline(
        config, _layer_parts(scheme, config.num_layers, cluster, capacity), ClusterSim(cluster),
        prompt_len, max_new_tokens, attention=attention, stats_itemsize=stats_itemsize,
    )
    return latency
