"""Data parallelism — the batch-splitting baseline of Section V-C.

Each device holds a full model replica and serves a disjoint subset of the
*batch*.  There is no intra-request parallelism at all, which is the paper's
point: with the edge-typical batch size of 1 exactly one device works and
the latency is the single-device latency plus shipping overhead.  Included
so the Section V-C comparison (data vs pipeline vs tensor vs position
parallelism) is fully executable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.timeline import LatencyBreakdown
from repro.core.layer import full_layer_flops
from repro.core.partition import split_evenly
from repro.systems.base import InferenceResult, InferenceSystem, activation_bytes

__all__ = ["BatchResult", "DataParallelSystem"]


@dataclass
class BatchResult:
    """Outputs for a whole batch plus the batch-level latency."""

    outputs: list[np.ndarray]
    latency: LatencyBreakdown
    meta: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.latency.total_seconds


class DataParallelSystem(InferenceSystem):
    """Full-replica devices each serving a slice of the request batch."""

    name = "data-parallel"

    def _request_flops(self, n: int) -> float:
        return sum(full_layer_flops(geometry, n) for geometry in self.geometries)

    def run_batch(self, raws: list) -> BatchResult:
        """Serve a batch: requests are assigned round-robin-contiguously.

        Batch latency = terminal pre-processing of everything + shipping +
        the *slowest device's* serial execution of its requests + gather.
        """
        if not raws:
            raise ValueError("batch must contain at least one request")
        latency = LatencyBreakdown()

        inputs = [self.model.preprocess(raw) for raw in raws]
        pre_flops = sum(self.model.preprocess_flops(x.shape[0]) for x in inputs)
        latency.add("preprocess batch (terminal)", "compute", self.sim.terminal_compute(pre_flops))

        counts = split_evenly(len(raws), self.k)
        boundaries = np.cumsum([0] + counts)
        assignments = [inputs[a:b] for a, b in zip(boundaries[:-1], boundaries[1:])]

        # ship each device its requests (serialised on the terminal NIC)
        ship = sum(
            self.sim.point_to_point(activation_bytes(x.shape[0], x.shape[1]))
            for x in inputs
        )
        latency.add("scatter requests", "comm", ship)

        # slowest device gates the batch
        device_seconds = []
        for device, slice_inputs in zip(self.cluster.devices, assignments):
            work = sum(self._request_flops(x.shape[0]) for x in slice_inputs)
            device_seconds.append(device.compute_seconds(work))
        latency.add("replica compute (slowest device)", "compute", max(device_seconds))

        gather = sum(
            self.sim.point_to_point(activation_bytes(x.shape[0], x.shape[1]))
            for x in inputs
        )
        latency.add("gather results", "comm", gather)

        outputs = []
        post_flops = 0
        for x in inputs:
            outputs.append(self.model.postprocess(self.model.encode(x)))
            post_flops += self.model.postprocess_flops(x.shape[0])
        latency.add("postprocess batch (terminal)", "compute", self.sim.terminal_compute(post_flops))

        return BatchResult(
            outputs=outputs,
            latency=latency,
            meta={
                "system": self.name,
                "batch": len(raws),
                "devices": self.k,
                "requests_per_device": counts,
            },
        )

    def run(self, raw) -> InferenceResult:
        """Single request — exercises the paper's batch-size-1 argument."""
        batch = self.run_batch([raw])
        return InferenceResult(
            output=batch.outputs[0], latency=batch.latency, meta=batch.meta
        )
