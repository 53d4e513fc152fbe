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
extra data movement — only the partition boundaries change.  So the system
is a :class:`VoltageSystem` whose per-layer :class:`LayerSchedule` is built
up front: ``run()`` prices it with :func:`voltage_timeline` at the trace's
speeds, and ``execute_distributed`` runs it on real ranks.
"""

from __future__ import annotations

from repro.cluster.dynamics import SpeedTrace, constant_trace
from repro.cluster.spec import ClusterSpec
from repro.core.layer import OrderPolicy
from repro.core.partition import PartitionScheme
from repro.core.planner import makespan_optimal_scheme
from repro.core.schedule import DynamicPlanner, LayerSchedule
from repro.models.base import TransformerModel
from repro.systems.voltage import VoltageSystem

__all__ = ["AdaptiveVoltageSystem"]

_MODES = ("static", "dynamic", "oracle")


class AdaptiveVoltageSystem(VoltageSystem):
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
        super().__init__(model, cluster, policy=policy)
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if not 0 < ewma_alpha <= 1:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.trace = trace if trace is not None else constant_trace(cluster.num_devices)
        if self.trace.num_devices != cluster.num_devices:
            raise ValueError(
                f"trace covers {self.trace.num_devices} devices, cluster has "
                f"{cluster.num_devices}"
            )
        self.mode = mode
        self.ewma_alpha = ewma_alpha
        self._plans: dict[int, tuple[LayerSchedule, list[float] | None]] = {}

    def schedule(self, n: int) -> LayerSchedule:
        return self._plan(n)[0]

    def _plan(self, n: int) -> tuple[LayerSchedule, list[float] | None]:
        """The request's schedule and, in ``dynamic`` mode, the planner's
        final speed estimates — a pure function of ``n``, planned once per
        length (``run()`` reads both halves, and re-planning costs a solve
        per layer)."""
        if n not in self._plans:
            self._plans[n] = self._make_plan(n)
        return self._plans[n]

    def _make_plan(self, n: int) -> tuple[LayerSchedule, list[float] | None]:
        if self.mode == "static":
            return LayerSchedule(PartitionScheme.even(self.k)), None
        config = self.model.config
        layers = [self.trace.cluster_at(index, self.cluster) for index in range(len(self.executors))]
        if self.mode == "oracle":
            schemes = [
                makespan_optimal_scheme(config, n, layer.device_gflops, policy=self.policy)
                for layer in layers
            ]
            return LayerSchedule(schemes), None
        planner = DynamicPlanner(
            config, self.cluster.device_gflops, policy=self.policy, alpha=self.ewma_alpha
        )
        for layer in layers:
            # the planner observes each layer's modelled seconds at the
            # trace's speeds — what the timeline charges for it
            scheme = planner.plan(n)
            seconds = [
                device.compute_seconds(self.policy.layer_flops(config, n, part.length))
                for device, part in zip(layer.devices, scheme.positions(n))
            ]
            planner.observe_layer(n, scheme, seconds)
        return LayerSchedule(planner.planned), planner.estimator.estimates

    def _timeline_inputs(self) -> dict:
        return {"speeds": self.trace}

    def _meta(self, n: int) -> dict:
        return {"mode": self.mode, "speed_estimates": self._plan(n)[1]}
