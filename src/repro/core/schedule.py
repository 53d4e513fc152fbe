"""Per-layer partition scheduling — the paper's dynamic-scheme extension.

Section V-B: "each transformer layer has all the input data ready after data
synchronization, which means it is totally able to compute any other
positions other than the assigned ones ... Voltage is flexible enough to
dynamically adjust partition schemes for each layer during the runtime
without any penalty."

This module implements that flexibility:

- :class:`LayerSchedule` — a (possibly per-layer) sequence of partition
  schemes;
- :class:`EwmaSpeedEstimator` — online per-device speed estimation from
  observed layer times;
- :class:`DynamicPlanner` — closes the loop: after each layer it updates the
  estimates and re-plans the next layer's scheme with the makespan-optimal
  solver from :mod:`repro.core.planner`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.layer import OrderPolicy
from repro.core.partition import Partition, PartitionScheme
from repro.core.planner import makespan_optimal_scheme
from repro.models.config import TransformerConfig

__all__ = ["LayerSchedule", "EwmaSpeedEstimator", "DynamicPlanner"]


class LayerSchedule:
    """A partition scheme per transformer layer.

    Wraps either a single static scheme (the paper's evaluation setting) or
    one scheme per layer.  All schemes must agree on the device count.
    """

    @classmethod
    def of(cls, scheme: PartitionScheme | LayerSchedule | None, num_devices: int) -> LayerSchedule:
        """``scheme`` as a schedule: itself, one scheme for every layer, or
        the paper's even 1/K split of ``num_devices`` when None."""
        if isinstance(scheme, LayerSchedule):
            return scheme
        return cls(scheme if scheme is not None else PartitionScheme.even(num_devices))

    def __init__(self, schemes: PartitionScheme | Sequence[PartitionScheme]):
        if isinstance(schemes, PartitionScheme):
            schemes = [schemes]
        schemes = list(schemes)
        if not schemes:
            raise ValueError("a schedule needs at least one scheme")
        k = schemes[0].num_devices
        for index, scheme in enumerate(schemes):
            if scheme.num_devices != k:
                raise ValueError(
                    f"scheme {index} covers {scheme.num_devices} devices, expected {k}"
                )
        self._schemes = schemes

    @property
    def num_devices(self) -> int:
        return self._schemes[0].num_devices

    def scheme_for_layer(self, layer: int) -> PartitionScheme:
        """Scheme for ``layer``; a short schedule repeats its last scheme."""
        if layer < 0:
            raise ValueError(f"layer must be >= 0, got {layer}")
        return self._schemes[min(layer, len(self._schemes) - 1)]

    def layer_parts(self, n: int, num_layers: int) -> list[list[Partition]]:
        """Every layer's per-device partitions of ``n`` positions."""
        return [self.scheme_for_layer(index).positions(n) for index in range(num_layers)]

    def __len__(self) -> int:
        return len(self._schemes)


class EwmaSpeedEstimator:
    """Exponentially-weighted per-device throughput estimates.

    Each observation is (FLOPs executed, seconds taken) for one device on
    one layer; the estimate converges to the device's current effective
    GFLOP/s and tracks drift at a rate set by ``alpha``.
    """

    def __init__(self, initial_gflops: Sequence[float], alpha: float = 0.5):
        if not (0 < alpha <= 1):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not initial_gflops or any(g <= 0 for g in initial_gflops):
            raise ValueError(f"initial speeds must be positive: {initial_gflops}")
        self.alpha = alpha
        self._estimates = [float(g) for g in initial_gflops]

    @property
    def estimates(self) -> list[float]:
        return list(self._estimates)

    def observe(self, device: int, flops: float, seconds: float) -> None:
        """Fold one (work, time) measurement into the device's estimate.

        Zero-work layers (a device whose partition was empty) carry no
        information and are ignored.
        """
        if not (0 <= device < len(self._estimates)):
            raise ValueError(f"device index {device} out of range")
        if flops < 0 or seconds < 0:
            raise ValueError("flops and seconds must be >= 0")
        if flops == 0 or seconds == 0:
            return
        observed = flops / seconds / 1e9
        self._estimates[device] = (
            self.alpha * observed + (1 - self.alpha) * self._estimates[device]
        )


class DynamicPlanner:
    """Re-plan the partition scheme every layer from observed speeds.

    Protocol per layer: call :meth:`plan` to get the scheme, execute the
    layer, then feed each device's (flops, seconds) back via
    :meth:`observe_layer`.  The first layer uses the nominal speeds.
    """

    def __init__(
        self,
        config: TransformerConfig,
        nominal_gflops: Sequence[float],
        policy: OrderPolicy | None = None,
        alpha: float = 0.5,
    ):
        self.config = config
        self.policy = policy if policy is not None else OrderPolicy()
        self.estimator = EwmaSpeedEstimator(nominal_gflops, alpha=alpha)
        self.planned: list[PartitionScheme] = []

    @property
    def k(self) -> int:
        return len(self.estimator.estimates)

    def plan(self, n: int) -> PartitionScheme:
        """Makespan-optimal scheme under the current speed estimates."""
        scheme = makespan_optimal_scheme(
            self.config, n, self.estimator.estimates, policy=self.policy
        )
        self.planned.append(scheme)
        return scheme

    def observe_layer(self, n: int, scheme: PartitionScheme, seconds: Sequence[float]) -> None:
        """Feed back one layer's per-device wall times."""
        if len(seconds) != scheme.num_devices:
            raise ValueError(
                f"got {len(seconds)} timings for {scheme.num_devices} devices"
            )
        for device, (part, elapsed) in enumerate(zip(scheme.positions(n), seconds)):
            flops = self.policy.layer_flops(self.config, n, part.length)
            self.estimator.observe(device, flops, elapsed)
