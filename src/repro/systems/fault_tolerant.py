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
device ``d`` dies immediately before computing layer ``l``.  The system is
a :class:`VoltageSystem` whose :class:`LayerSchedule` gives dead devices
ratio 0 from their failure layer on: ``run()`` prices it with
:func:`voltage_timeline` (detection phases, collectives over the live
ranks), and ``execute_distributed`` runs it on real ranks, where a dead
rank holds an empty partition.  The output is bit-identical to the
failure-free run; only the latency changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.spec import ClusterSpec
from repro.core.layer import OrderPolicy
from repro.core.partition import PartitionScheme
from repro.core.schedule import LayerSchedule
from repro.models.base import TransformerModel
from repro.systems.voltage import VoltageSystem

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

    def events(self) -> dict[int, list[int]]:
        """``{layer: devices dying just before it}``, by layer."""
        return {layer: sorted(self.dying_at(layer)) for layer in sorted(set(self.failures.values()))}


def _survivor_scheme(alive: list[int], k: int) -> PartitionScheme:
    """Even split over survivors, zero ratio for dead devices."""
    ratios = [0.0] * k
    share = 1.0 / len(alive)
    for device in alive:
        ratios[device] = share
    return PartitionScheme(ratios)


class FaultTolerantVoltageSystem(VoltageSystem):
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
        super().__init__(model, cluster, policy=policy)
        if isinstance(failures, dict):
            failures = FailureSchedule(failures)
        self.failures = failures if failures is not None else FailureSchedule()
        self.failures.validate(self.k, len(model.layers))
        if detection_timeout_seconds < 0:
            raise ValueError("detection timeout must be >= 0")
        self.detection_timeout_seconds = detection_timeout_seconds

    def schedule(self, n: int) -> LayerSchedule:
        """Each layer split evenly over the devices still alive at it."""
        schemes = []
        for index in range(len(self.executors)):
            dead = self.failures.dead_before(index + 1)
            alive = [d for d in range(self.k) if d not in dead]
            if not alive:
                raise AllDevicesFailedError(
                    f"no devices left at layer {index} "
                    f"(failures: {self.failures.failures})"
                )
            schemes.append(_survivor_scheme(alive, self.k))
        return LayerSchedule(schemes)

    def _timeline_inputs(self) -> dict:
        return {
            "failures": self.failures.events(),
            "detection_seconds": self.detection_timeout_seconds,
        }

    def _meta(self, n: int) -> dict:
        events = self.failures.events().items()
        return {
            "failure_events": [{"layer": layer, "devices": devices} for layer, devices in events],
            "survivors": [d for d in range(self.k) if d not in self.failures.failures],
        }
