"""Fault-tolerant Voltage: surviving device failures mid-inference.

A consequence of Voltage's design the paper doesn't exploit: after every
All-Gather each device holds the *complete* layer input, and every device
holds the *complete* model weights (Section V-C).  So when a device dies,
nothing is lost — the survivors simply re-partition the remaining layers
among themselves and keep going, paying only a detection timeout.

Contrast with tensor parallelism, where each device holds an irreplaceable
weight shard: losing one device loses part of the model, and inference
cannot continue without re-distributing weights from a checkpoint.

Failures are injected as a schedule ``{device_index: layer_index}`` —
device ``d`` dies immediately before computing layer ``l``.  The output is
bit-identical to the failure-free run; only the latency changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core.layer import OrderPolicy, PartitionedLayerExecutor
from repro.core.partition import PartitionScheme
from repro.models.base import TransformerModel
from repro.systems.base import (
    InferenceResult, InferenceSystem, activation_bytes, emulate_partitioned_layers, terminal_phase,
)

__all__ = ["AllDevicesFailedError", "FailureSchedule", "FaultTolerantVoltageSystem"]


class AllDevicesFailedError(RuntimeError):
    """Every computing device died before the request finished."""


@dataclass(frozen=True)
class FailureSchedule:
    """Which devices die, and before which layer."""

    failures: dict = field(default_factory=dict)  # device index -> layer index

    def __post_init__(self) -> None:
        for device, layer in self.failures.items():
            if device < 0 or layer < 0:
                raise ValueError(f"invalid failure entry: device {device}, layer {layer}")

    def validate(self, num_devices: int, num_layers: int) -> None:
        """Reject entries that cannot occur on the given deployment.

        A ``fail_layer >= num_layers`` entry would never match any layer's
        ``dying_at`` check, silently leaving that device alive for the whole
        request — an injected failure that tests *think* they exercised but
        never happened.
        """
        for device, layer in self.failures.items():
            if device >= num_devices:
                raise ValueError(
                    f"failure names device {device}, cluster has {num_devices}"
                )
            if layer >= num_layers:
                raise ValueError(
                    f"failure for device {device} at layer {layer} can never fire: "
                    f"model has only {num_layers} layers"
                )

    def dead_before(self, layer: int) -> set:
        """Devices that failed at an earlier layer (strictly before ``layer``)."""
        return {d for d, fail_layer in self.failures.items() if fail_layer < layer}

    def dying_at(self, layer: int) -> set:
        return {d for d, fail_layer in self.failures.items() if fail_layer == layer}


def _survivor_scheme(alive: list[int], k: int) -> PartitionScheme:
    """Even split over survivors, zero ratio for dead devices."""
    ratios = [0.0] * k
    share = 1.0 / len(alive)
    for device in alive:
        ratios[device] = share
    return PartitionScheme(ratios)


class FaultTolerantVoltageSystem(InferenceSystem):
    """Voltage with failure detection and survivor re-partitioning."""

    name = "voltage-fault-tolerant"

    def __init__(
        self,
        model: TransformerModel,
        cluster: ClusterSpec,
        failures: FailureSchedule | dict | None = None,
        detection_timeout_seconds: float = 0.2,
        policy: OrderPolicy | None = None,
    ):
        super().__init__(model, cluster)
        if isinstance(failures, dict):
            failures = FailureSchedule(failures)
        self.failures = failures if failures is not None else FailureSchedule()
        self.failures.validate(self.k, len(model.layers))
        if detection_timeout_seconds < 0:
            raise ValueError("detection timeout must be >= 0")
        self.detection_timeout_seconds = detection_timeout_seconds
        self.policy = policy if policy is not None else OrderPolicy()
        self.executors = [
            PartitionedLayerExecutor(layer, policy=self.policy) for layer in model.layers
        ]

    def run(self, raw) -> InferenceResult:
        x, terminal = self._preprocess(raw)
        n, f = x.shape
        latency = LatencyBreakdown()
        terminal_phase(latency, self.sim, "preprocess", terminal["pre_flops"])

        latency.add("broadcast input", "comm", self.sim.broadcast(activation_bytes(n, f)))

        # priced here, not through ``voltage_timeline``: collectives run over
        # the live devices only and detection timeouts interleave the layers
        events = []
        layer_parts = []
        for index, executor in enumerate(self.executors):
            dying = self.failures.dying_at(index)
            dead = self.failures.dead_before(index) | dying
            alive = [d for d in range(self.k) if d not in dead]
            if dying:
                # survivors notice the missing peer at the barrier: one
                # detection timeout per failure event (not per device)
                latency.add(
                    f"detect failure of device(s) {sorted(dying)}",
                    "overhead",
                    self.detection_timeout_seconds,
                    layer=index,
                )
                events.append({"layer": index, "devices": sorted(dying)})
            if not alive:
                raise AllDevicesFailedError(
                    f"no devices left at layer {index} "
                    f"(failures: {self.failures.failures})"
                )

            parts = _survivor_scheme(alive, self.k).positions(n)
            layer_parts.append(parts)
            seconds = [
                device.compute_seconds(executor.partition_flops(n, part.length))
                if part.length
                else 0.0
                for device, part in zip(self.cluster.devices, parts)
            ]
            latency.add("partition compute", "compute", max(seconds), layer=index)

            chunk_bytes = [activation_bytes(part.length, f) for part in parts]
            live_chunks = [chunk_bytes[d] for d in alive]
            if index + 1 < len(self.executors):
                latency.add("all-gather", "comm", self.sim.all_gather(live_chunks), layer=index)
            else:
                latency.add("gather to terminal", "comm", self.sim.gather(live_chunks), layer=index)

        x = emulate_partitioned_layers(
            x, lambda i, x, part: self.executors[i].forward_partition(x, part), layer_parts
        )
        terminal_phase(latency, self.sim, "postprocess", terminal["post_flops"])
        survivors = [d for d in range(self.k)
                     if d not in self.failures.dead_before(len(self.executors))]
        return self._result(x, latency, failure_events=events, survivors=survivors)
