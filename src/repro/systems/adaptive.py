"""Adaptive Voltage: per-layer dynamic partition schemes under speed drift.

Implements the extension the paper flags in Section V-B ("dynamically
adjusting partition schemes for each layer during the runtime without any
penalty"): device speeds vary over time (a :class:`SpeedTrace`), and the
system re-partitions every layer based on online speed estimates.

Three scheduling modes, compared by the ``ablation_dynamic`` benchmark:

- ``static``  — the paper's evaluation setting: a fixed even 1/K split;
- ``dynamic`` — closed-loop: EWMA speed estimation from observed layer
  times, makespan-optimal re-planning each layer (realisable in practice);
- ``oracle``  — re-plans with the *true* current speeds (the lower bound a
  dynamic policy can approach).

Re-partitioning really is penalty-free: every device already holds the full
layer input after the All-Gather, so changing who computes what requires no
extra data movement — only the partition boundaries change.
"""

from __future__ import annotations

from repro.cluster.dynamics import SpeedTrace, constant_trace
from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core.layer import OrderPolicy, PartitionedLayerExecutor
from repro.core.partition import PartitionScheme
from repro.core.planner import makespan_optimal_scheme
from repro.core.schedule import DynamicPlanner
from repro.models.base import TransformerModel
from repro.systems.base import (
    InferenceResult, InferenceSystem, activation_bytes, terminal_phase, voltage_layers,
)

__all__ = ["AdaptiveVoltageSystem"]

_MODES = ("static", "dynamic", "oracle")


class AdaptiveVoltageSystem(InferenceSystem):
    """Voltage with per-layer scheme adaptation under time-varying speeds."""

    name = "voltage-adaptive"

    def __init__(
        self,
        model: TransformerModel,
        cluster: ClusterSpec,
        trace: SpeedTrace | None = None,
        mode: str = "dynamic",
        policy: OrderPolicy | None = None,
        ewma_alpha: float = 0.6,
    ):
        super().__init__(model, cluster)
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.trace = trace if trace is not None else constant_trace(cluster.num_devices)
        if self.trace.num_devices != cluster.num_devices:
            raise ValueError(
                f"trace covers {self.trace.num_devices} devices, cluster has "
                f"{cluster.num_devices}"
            )
        self.mode = mode
        self.policy = policy if policy is not None else OrderPolicy()
        self.ewma_alpha = ewma_alpha
        self.executors = [
            PartitionedLayerExecutor(layer, policy=self.policy) for layer in model.layers
        ]

    def _device_seconds(self, layer: int, flops: list[float]) -> list[float]:
        """Per-device wall time at this layer's effective speeds."""
        speeds = self.trace.effective_gflops(layer, self.cluster.device_gflops)
        seconds = []
        for device, speed, work in zip(self.cluster.devices, speeds, flops):
            if work == 0:
                seconds.append(0.0)
            else:
                seconds.append(work / (speed * 1e9) + device.overhead_seconds)
        return seconds

    def _scheme_for_layer(
        self, layer: int, n: int, planner: DynamicPlanner | None
    ) -> PartitionScheme:
        if self.mode == "static":
            return PartitionScheme.even(self.k)
        if self.mode == "oracle":
            true_speeds = self.trace.effective_gflops(layer, self.cluster.device_gflops)
            return makespan_optimal_scheme(
                self.model.config, n, true_speeds, policy=self.policy
            )
        assert planner is not None
        return planner.plan(n)

    def run(self, raw) -> InferenceResult:
        x, terminal = self._preprocess(raw)
        n, f = x.shape
        sim = ClusterSim(self.cluster)
        latency = LatencyBreakdown()
        terminal_phase(latency, sim, "preprocess", terminal["pre_flops"])

        latency.add("broadcast input", "comm", sim.broadcast(activation_bytes(n, f)))

        planner = (
            DynamicPlanner(
                self.model.config,
                self.cluster.device_gflops,
                policy=self.policy,
                alpha=self.ewma_alpha,
            )
            if self.mode == "dynamic"
            else None
        )

        # priced here, not through ``voltage_timeline``: compute runs at the
        # trace's speeds and each layer's scheme depends on the previous
        # layer's observed times
        schemes_used: list[tuple[float, ...]] = []
        layer_parts = []
        for index in range(len(self.executors)):
            scheme = self._scheme_for_layer(index, n, planner)
            schemes_used.append(scheme.ratios)
            parts = scheme.positions(n)
            layer_parts.append(parts)
            flops = [self.policy.layer_flops(self.model.config, n, part.length) for part in parts]
            seconds = self._device_seconds(index, flops)
            latency.add("partition compute", "compute", max(seconds), layer=index)
            if planner is not None:
                planner.observe_layer(n, scheme, seconds)

            chunk_bytes = [activation_bytes(part.length, f) for part in parts]
            if index + 1 < len(self.executors):
                latency.add("all-gather", "comm", sim.all_gather(chunk_bytes), layer=index)
            else:
                latency.add(
                    "gather to terminal", "comm", sim.gather(chunk_bytes), layer=index
                )

        x = voltage_layers(
            x, [executor.forward_partition for executor in self.executors], layer_parts
        )
        terminal_phase(latency, sim, "postprocess", terminal["post_flops"])
        return self._result(
            x, latency, mode=self.mode, schemes=schemes_used,
            speed_estimates=planner.estimator.estimates if planner else None,
        )
