"""Edge serving simulators: request streams through each deployment strategy.

Three server shapes, matching how each parallelism occupies the cluster:

- :class:`MonolithicServer` — Voltage / tensor-parallel / single-device: one
  request holds *all* devices for its whole service time (the collectives
  are barriers), so requests serialise FIFO.  Lowest per-request latency,
  throughput capped at ``1/service_time``.
- :class:`PerDeviceServer` — data parallelism: K independent full-replica
  workers; requests dispatch to the earliest-free device.  K× throughput,
  single-device latency.
- :class:`PipelineServer` — layer stages: a request flows through K stage
  resources, overlapping with its neighbours.  High throughput, latency no
  better than single-device plus hops.

Service-time models are injected as callables ``n -> seconds`` (built from
the systems' timeline functions by :func:`service_models`), keeping the
queueing logic independent of the latency calibration.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.cluster.simulator import ClusterSim, Resource, StagePipeline
from repro.core.layer import LayerGeometry
from repro.core.partition import PartitionScheme
from repro.serving.arrivals import Request
from repro.serving.stats import ServedRequest, ServingStats, record_serving_metrics

__all__ = ["MonolithicServer", "PerDeviceServer", "PipelineServer", "service_models"]


def _validate(requests: Sequence[Request]) -> list[Request]:
    if not requests:
        raise ValueError("need at least one request")
    return sorted(requests)


class MonolithicServer:
    """All devices serve one request at a time (barrier-style systems)."""

    shape = "monolithic"

    def __init__(self, service_time: Callable[[int], float]):
        self.service_time = service_time

    def serve(self, requests: Sequence[Request]) -> list[ServedRequest]:
        cluster = Resource("cluster")
        served = []
        for request in _validate(requests):
            start, finish = cluster.reserve(request.arrival, self.service_time(request.n))
            served.append(ServedRequest(request=request, start=start, finish=finish))
        record_serving_metrics(self.shape, served)
        return served

    def run(self, requests: Sequence[Request]) -> ServingStats:
        return ServingStats.from_served(self.serve(requests))


class PerDeviceServer:
    """K independent replicas; each request goes to the earliest-free one."""

    shape = "per-device"

    def __init__(self, service_time: Callable[[int], float], num_devices: int):
        if num_devices < 1:
            raise ValueError(f"need >= 1 device, got {num_devices}")
        self.service_time = service_time
        self.num_devices = num_devices

    def serve(self, requests: Sequence[Request]) -> list[ServedRequest]:
        devices = [Resource(f"replica-{i}") for i in range(self.num_devices)]
        served = []
        for request in _validate(requests):
            # earliest-completion dispatch: pick the device free soonest
            device = min(devices, key=lambda d: max(d.available_at, request.arrival))
            start, finish = device.reserve(request.arrival, self.service_time(request.n))
            served.append(ServedRequest(request=request, start=start, finish=finish))
        record_serving_metrics(self.shape, served)
        return served

    def run(self, requests: Sequence[Request]) -> ServingStats:
        return ServingStats.from_served(self.serve(requests))


class PipelineServer:
    """Layer-stage pipeline: per-stage FIFO resources plus inter-stage hops."""

    shape = "pipeline"

    def __init__(
        self,
        stage_times: Callable[[int], Sequence[float]],
        hop_time: Callable[[int], float],
    ):
        self.stage_times = stage_times
        self.hop_time = hop_time

    def serve(self, requests: Sequence[Request]) -> list[ServedRequest]:
        requests = _validate(requests)
        num_stages = len(self.stage_times(requests[0].n))
        pipeline = StagePipeline(num_stages)
        served = []
        for request in requests:
            times = self.stage_times(request.n)
            if len(times) != num_stages:
                raise ValueError("stage count must not vary across requests")
            start, finish = pipeline.push(request.arrival, times, self.hop_time(request.n))
            served.append(ServedRequest(request=request, start=start, finish=finish))
        record_serving_metrics(self.shape, served)
        return served

    def run(self, requests: Sequence[Request]) -> ServingStats:
        return ServingStats.from_served(self.serve(requests))


def service_models(config, cluster, pre_flops: int = 0, post_flops: int = 0) -> dict:
    """Build the three servers' timing callables from the systems' timelines.

    Returns ``{"voltage": MonolithicServer, "tensor-parallel":
    MonolithicServer, "single-device": ..., "data-parallel": PerDeviceServer,
    "pipeline": PipelineServer}`` all calibrated for (config, cluster).
    """
    from repro.systems.pipeline_parallel import pipeline_timeline
    from repro.systems.single_device import single_device_timeline
    from repro.systems.tensor_parallel import tensor_parallel_timeline
    from repro.systems.voltage import voltage_timeline

    geometries = [LayerGeometry.of_config(config)] * config.num_layers
    sim, single_sim = ClusterSim(cluster), ClusterSim(cluster.with_num_devices(1))
    terminal = {"pre_flops": pre_flops, "post_flops": post_flops}
    even = PartitionScheme.even(cluster.num_devices)

    def voltage_time(n: int) -> float:
        layer_parts = [even.positions(n)] * config.num_layers
        return voltage_timeline(geometries, layer_parts, sim, **terminal)[0].total_seconds

    def tensor_time(n: int) -> float:
        return tensor_parallel_timeline(geometries, n, sim, **terminal)[0].total_seconds

    def single_time(n: int) -> float:
        return single_device_timeline(geometries, n, single_sim, **terminal).total_seconds

    def pipeline_times(n: int) -> tuple[list[float], float]:
        return pipeline_timeline(geometries, n, sim)[1:]

    return {
        "voltage": MonolithicServer(voltage_time),
        "tensor-parallel": MonolithicServer(tensor_time),
        "single-device": MonolithicServer(single_time),
        "data-parallel": PerDeviceServer(single_time, cluster.num_devices),
        "pipeline": PipelineServer(
            lambda n: pipeline_times(n)[0], lambda n: pipeline_times(n)[1]
        ),
    }
