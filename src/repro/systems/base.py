"""The common interface of all inference systems.

A *system* deploys a :class:`~repro.models.base.TransformerModel` on a
:class:`~repro.cluster.spec.ClusterSpec` and serves single requests
(batch size 1, the edge setting the paper targets).  ``run()`` returns both:

- the **real output**, produced by executing the system's exact distributed
  protocol (host-emulated, bit-faithful to what the devices would compute);
- the **simulated latency** as a per-phase :class:`LatencyBreakdown`, using
  the calibrated device/network cost models.

The split lets the test-suite assert numerical equivalence across systems
while the benchmarks sweep latency over device counts and bandwidths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.collectives import all_gather_arrays
from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core.layer import LayerGeometry
from repro.models.base import TransformerModel
from repro.obs.metrics import get_registry
from repro.obs.tracer import current_tracer

__all__ = ["InferenceResult", "InferenceSystem", "activation_bytes",
           "emulate_partitioned_layers", "terminal_phase"]


def activation_bytes(n: int, f: int, itemsize: int = 4) -> float:
    """Size of an ``(N, F)`` float32 activation on the wire."""
    return float(n) * f * itemsize


def terminal_phase(latency: LatencyBreakdown, sim: ClusterSim, stage: str, flops: int) -> None:
    """Charge the terminal's ``"preprocess"`` / ``"postprocess"`` stage."""
    latency.add(f"{stage} (terminal)", "compute", sim.terminal_compute(flops))


def emulate_partitioned_layers(x: np.ndarray, forward, layer_parts, encode=None) -> np.ndarray:
    """Host-emulate Algorithm 2's layer loop: every device's partition of
    every layer really is computed (``forward(layer, x, part)``), optionally
    wire-encoded, and All-Gathered into the next layer's full input."""
    for index, parts in enumerate(layer_parts):
        outputs = [forward(index, x, part) for part in parts]
        if encode is not None:
            outputs = [encode(output) for output in outputs]
        x = all_gather_arrays(outputs)
    return x


@dataclass
class InferenceResult:
    """Output + latency + metadata for one served request."""

    output: np.ndarray
    latency: LatencyBreakdown
    meta: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.latency.total_seconds


class InferenceSystem:
    """Base class: holds the model, the cluster, and the cost helper."""

    name = "abstract"

    def __init__(self, model: TransformerModel, cluster: ClusterSpec):
        self.model = model
        self.cluster = cluster
        self.sim = ClusterSim(cluster)

    @property
    def k(self) -> int:
        return self.cluster.num_devices

    def run(self, raw) -> InferenceResult:
        """Serve one request end-to-end."""
        raise NotImplementedError

    def latency_seconds(self, raw) -> float:
        """Convenience wrapper for sweeps that only need the scalar."""
        return self.run(raw).total_seconds

    def traced_run(self, raw) -> InferenceResult:
        """:meth:`run` inside a wall-clock request span, with per-system
        request metrics (count + modeled-latency histogram) recorded into
        the default registry.  The phase/sim spans emitted during ``run``
        nest under the request span's timeline in an exported trace."""
        with current_tracer().span(
            f"{self.name}.run", cat="system", kind="request", system=self.name
        ) as span:
            result = self.run(raw)
            span.set(n=result.meta.get("n"), modeled_seconds=result.total_seconds)
        registry = get_registry()
        registry.counter("system.requests_total", system=self.name).inc()
        registry.histogram("system.modeled_latency_seconds", system=self.name).observe(
            result.total_seconds
        )
        return result

    # -- shared terminal-side stages -----------------------------------------

    @property
    def geometries(self) -> list[LayerGeometry]:
        """Per-layer shapes read off the live layers — what a timeline prices."""
        return [LayerGeometry.of_layer(layer) for layer in self.model.layers]

    def _preprocess(self, raw) -> tuple[np.ndarray, dict]:
        """The embedded request and the terminal FLOPs its timeline charges."""
        x = self.model.preprocess(raw)
        n = x.shape[0]
        flops = {"pre_flops": self.model.preprocess_flops(n),
                 "post_flops": self.model.postprocess_flops(n)}
        return x, flops

    def _result(self, hidden: np.ndarray, latency: LatencyBreakdown, **meta) -> InferenceResult:
        """Post-process the final hidden states into the request's result."""
        output = self.model.postprocess(self.model.final_norm(hidden))
        meta = {"system": self.name, "n": hidden.shape[0], "devices": self.k, **meta}
        return InferenceResult(output=output, latency=latency, meta=meta)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(model={self.model.config.name!r}, "
            f"devices={self.k}, bandwidth={self.cluster.network.bandwidth_mbps:g} Mbps)"
        )
