"""Pipeline parallelism — layer-wise staging across devices.

Included for the Section V-C comparison: pipelining optimises *throughput*
under a stream of requests but cannot reduce the latency of an individual
request — with batch size 1 every stage waits for its predecessor, so the
request still traverses all layers sequentially *plus* K-1 inter-stage hops.

``run`` serves a single request (the latency story); ``serve_stream``
simulates a request stream through the pipeline using resource reservations
(devices and links are serially reusable), demonstrating the throughput
benefit the paper concedes to pipeline parallelism — and why it is the wrong
tool for sporadic edge traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.simulator import ClusterSim, StagePipeline
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core.layer import full_layer_flops
from repro.core.partition import split_evenly
from repro.models.base import TransformerModel
from repro.models.config import TransformerConfig
from repro.systems.base import InferenceResult, InferenceSystem, activation_bytes, terminal_phase

__all__ = ["PipelineParallelSystem", "StreamReport", "pipeline_timeline"]


def _stage_splits(num_layers: int, k: int) -> list[range]:
    ranges, start = [], 0
    for width in split_evenly(num_layers, k):
        ranges.append(range(start, start + width))
        start += width
    return ranges


def pipeline_timeline(
    config: TransformerConfig,
    n: int,
    sim: ClusterSim,
    pre_flops: int = 0,
    post_flops: int = 0,
) -> tuple[LatencyBreakdown, list[float], float]:
    """The latency timeline of one request through the layer stages — shapes
    only; what :meth:`PipelineParallelSystem.run` and ``bench.analytic`` both
    return.  Also hands back each stage's compute seconds and the per-hop
    transfer seconds, which is all a request *stream* needs."""
    wire = activation_bytes(n, config.hidden_size)
    stage_seconds: list[float] = []
    latency = LatencyBreakdown()
    terminal_phase(latency, sim, "preprocess", pre_flops)
    hop_seconds = sim.point_to_point(wire)
    latency.add("ship input to stage 0", "comm", hop_seconds)
    for rank, stage in enumerate(_stage_splits(config.num_layers, sim.k)):
        flops = len(stage) * full_layer_flops(config, n)
        seconds = sim.cluster.devices[rank].compute_seconds(flops)
        stage_seconds.append(seconds)
        latency.add(f"stage {rank} compute", "compute", seconds)
        hop = "return hidden to terminal" if rank == sim.k - 1 else f"stage {rank}->{rank + 1}"
        latency.add(hop, "comm", sim.point_to_point(wire))
    terminal_phase(latency, sim, "postprocess", post_flops)
    return latency, stage_seconds, hop_seconds


@dataclass(frozen=True)
class StreamReport:
    """Result of pushing a request stream through the pipeline."""

    request_latencies: list[float]
    makespan_seconds: float

    @property
    def mean_latency(self) -> float:
        return sum(self.request_latencies) / len(self.request_latencies)

    @property
    def throughput_rps(self) -> float:
        return len(self.request_latencies) / self.makespan_seconds if self.makespan_seconds else 0.0


class PipelineParallelSystem(InferenceSystem):
    """Contiguous layer stages, one per device, daisy-chained activations."""

    name = "pipeline-parallel"

    def __init__(self, model: TransformerModel, cluster: ClusterSpec):
        super().__init__(model, cluster)
        self.stages = _stage_splits(model.num_layers, self.k)

    def run(self, raw) -> InferenceResult:
        x, terminal = self._preprocess(raw)
        latency, _, _ = pipeline_timeline(self.model.config, x.shape[0], self.sim, **terminal)
        for layer in self.model.layers:  # the stages, back to back
            x = layer(x)
        return self._result(x, latency, stage_layers=[len(s) for s in self.stages])

    def serve_stream(self, n: int, num_requests: int, arrival_interval: float = 0.0) -> StreamReport:
        """Simulate ``num_requests`` length-``n`` requests through the pipeline.

        Each stage's device and each inter-stage link are FIFO resources;
        request ``r`` enters at ``r · arrival_interval``.  With a saturated
        stream the pipeline's throughput approaches ``1 / max_stage_time``
        while per-request latency never drops below the single-request value
        — the crux of the paper's latency-vs-throughput argument.
        """
        if num_requests < 1:
            raise ValueError(f"need at least one request, got {num_requests}")
        _, stage_seconds, hop_seconds = pipeline_timeline(self.model.config, n, self.sim)
        pipeline = StagePipeline(self.k)
        arrivals = [request * arrival_interval for request in range(num_requests)]
        finishes = [pipeline.push(t, stage_seconds, hop_seconds)[1] for t in arrivals]
        return StreamReport(
            request_latencies=[finish - t for t, finish in zip(arrivals, finishes)],
            makespan_seconds=max(finishes),
        )
