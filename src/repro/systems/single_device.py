"""Single-device deployment — the paper's primary baseline.

The terminal pre-processes the request, ships the input features to one
computing device, which runs the whole transformer stack and returns the
final hidden states for post-processing (the dashed orange line of Fig. 5).
"""

from __future__ import annotations

from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core.layer import full_layer_flops
from repro.models.config import TransformerConfig
from repro.systems.base import InferenceResult, InferenceSystem, activation_bytes, terminal_phase

__all__ = ["SingleDeviceSystem", "single_device_timeline"]


def single_device_timeline(
    config: TransformerConfig,
    n: int,
    cluster: ClusterSpec,
    pre_flops: int = 0,
    post_flops: int = 0,
) -> tuple[LatencyBreakdown, dict]:
    """The latency timeline of one single-device request on ``cluster``'s
    first device — shapes only, so it needs no weights; what
    :meth:`SingleDeviceSystem.run` reports.  Its meta is empty."""
    sim = ClusterSim(cluster)
    wire = activation_bytes(n, config.hidden_size)
    seconds = cluster.devices[0].compute_seconds(full_layer_flops(config, n))
    latency = LatencyBreakdown()
    terminal_phase(latency, sim, "preprocess", pre_flops)
    latency.add("ship input to device", "comm", sim.point_to_point(wire))
    for index in range(config.num_layers):
        latency.add("layer compute", "compute", seconds, layer=index)
    latency.add("return hidden to terminal", "comm", sim.point_to_point(wire))
    terminal_phase(latency, sim, "postprocess", post_flops)
    return latency, {}


class SingleDeviceSystem(InferenceSystem):
    """Runs every layer on the first device of the cluster."""

    name = "single-device"

    def run(self, raw) -> InferenceResult:
        x, terminal = self._preprocess(raw)
        latency, _ = single_device_timeline(self.model.config, x.shape[0], self.cluster, **terminal)
        for layer in self.model.layers:
            x = layer(x)
        return self._result(x, latency, devices=1)
