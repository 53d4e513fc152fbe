"""Planning utilities: communication volume and partition-scheme optimisation.

Two responsibilities:

1. **Communication accounting** (paper Section V-C): per-device, per-layer
   traffic of Voltage's single All-Gather versus tensor parallelism's two
   All-Reduces — the source of the headline "4× less communication".

2. **Heterogeneity-aware partition schemes.**  The paper evaluates only even
   splits and leaves runtime scheme adaptation to future work; we implement
   the natural extension: pick ratios that minimise the per-layer compute
   *makespan* across devices with different speeds.  Because the per-device
   cost of Algorithm 1 is monotonically increasing in its partition length,
   the minimal makespan can be found by bisection on the finishing time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import complexity
from repro.core.layer import OrderPolicy
from repro.core.partition import PartitionScheme
from repro.models.config import TransformerConfig

__all__ = [
    "BYTES_PER_ELEMENT",
    "CommReport",
    "voltage_layer_bytes",
    "tensor_parallel_layer_bytes",
    "comm_report",
    "device_layer_flops",
    "makespan_optimal_scheme",
    "estimate_makespan",
]

#: float32 activations — 4 bytes/element, as in the PyTorch CPU deployment.
BYTES_PER_ELEMENT = 4


def voltage_layer_bytes(n: int, f: int, k: int) -> float:
    """Per-device bytes Voltage sends+receives per layer: ``(K-1)·N·F/K · 4``."""
    return complexity.voltage_comm_elements(n, f, k) * BYTES_PER_ELEMENT


def tensor_parallel_layer_bytes(n: int, f: int, k: int) -> float:
    """Per-device bytes tensor parallelism moves per layer (two All-Reduces)."""
    return complexity.tensor_parallel_comm_elements(n, f, k) * BYTES_PER_ELEMENT


@dataclass(frozen=True)
class CommReport:
    """Side-by-side communication accounting for one model deployment."""

    n: int
    f: int
    k: int
    num_layers: int
    voltage_bytes_per_layer: float
    tensor_parallel_bytes_per_layer: float

    @property
    def voltage_total_bytes(self) -> float:
        return self.voltage_bytes_per_layer * self.num_layers

    @property
    def tensor_parallel_total_bytes(self) -> float:
        return self.tensor_parallel_bytes_per_layer * self.num_layers

    @property
    def reduction_factor(self) -> float:
        """TP traffic / Voltage traffic — the paper reports exactly 4×."""
        if self.voltage_bytes_per_layer == 0:
            return float("inf") if self.tensor_parallel_bytes_per_layer else 1.0
        return self.tensor_parallel_bytes_per_layer / self.voltage_bytes_per_layer


def comm_report(config: TransformerConfig, n: int, k: int) -> CommReport:
    """Communication accounting for a whole model at sequence length ``n``."""
    return CommReport(
        n=n,
        f=config.hidden_size,
        k=k,
        num_layers=config.num_layers,
        voltage_bytes_per_layer=voltage_layer_bytes(n, config.hidden_size, k),
        tensor_parallel_bytes_per_layer=tensor_parallel_layer_bytes(n, config.hidden_size, k),
    )


# ---------------------------------------------------------------------------
# Heterogeneous partition-scheme optimisation
# ---------------------------------------------------------------------------


def device_layer_flops(
    config: TransformerConfig,
    n: int,
    p: int,
    policy: OrderPolicy | None = None,
) -> int:
    """FLOPs one device spends on one layer given its partition length ``p``."""
    return (policy if policy is not None else OrderPolicy()).layer_flops(config, n, p)


def estimate_makespan(
    config: TransformerConfig,
    n: int,
    scheme: PartitionScheme,
    device_gflops: list[float],
    policy: OrderPolicy | None = None,
) -> float:
    """Per-layer compute makespan (seconds): the slowest device's time."""
    if len(device_gflops) != scheme.num_devices:
        raise ValueError(
            f"scheme has {scheme.num_devices} devices but {len(device_gflops)} speeds given"
        )
    times = []
    for part, gflops in zip(scheme.positions(n), device_gflops):
        flops = device_layer_flops(config, n, part.length, policy=policy)
        times.append(flops / (gflops * 1e9))
    return max(times)


def _max_positions_within(
    config: TransformerConfig,
    n: int,
    gflops: float,
    deadline: float,
    policy: OrderPolicy,
) -> int:
    """Largest partition length a device can finish within ``deadline`` seconds.

    Binary search over p — valid because Algorithm 1's cost is monotonically
    non-decreasing in the partition length for a fixed N.
    """
    budget_flops = deadline * gflops * 1e9
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if device_layer_flops(config, n, mid, policy=policy) <= budget_flops:
            lo = mid
        else:
            hi = mid - 1
    return lo


def makespan_optimal_scheme(
    config: TransformerConfig,
    n: int,
    device_gflops: list[float],
    policy: OrderPolicy | None = None,
    tolerance: float = 1e-9,
) -> PartitionScheme:
    """Partition scheme minimising the per-layer compute makespan.

    Bisects on the makespan T: a deadline is feasible iff the devices'
    maximal within-deadline partition lengths sum to at least N.  The
    returned ratios reproduce an even split for homogeneous devices and
    speed-proportional splits (with Theorem-2-aware corrections for the
    attention constant term) for heterogeneous ones.
    """
    if not device_gflops or any(g <= 0 for g in device_gflops):
        raise ValueError(f"device speeds must be positive: {device_gflops}")
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    policy = policy if policy is not None else OrderPolicy()
    k = len(device_gflops)
    if k == 1:
        return PartitionScheme.single()

    # upper bound: the fastest device does everything
    hi = device_layer_flops(config, n, n, policy=policy) / (max(device_gflops) * 1e9)
    lo = 0.0
    for _ in range(64):
        mid = (lo + hi) / 2
        capacity = sum(
            _max_positions_within(config, n, g, mid, policy) for g in device_gflops
        )
        if capacity >= n:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tolerance * max(hi, 1.0):
            break

    lengths = [_max_positions_within(config, n, g, hi, policy) for g in device_gflops]
    # trim any surplus (capacity may exceed N at the feasible deadline),
    # taking positions away from the slowest devices first
    surplus = sum(lengths) - n
    for index in sorted(range(k), key=lambda i: device_gflops[i]):
        if surplus <= 0:
            break
        take = min(surplus, lengths[index])
        lengths[index] -= take
        surplus -= take
    if sum(lengths) != n:  # infeasible rounding corner: fall back to proportional
        return PartitionScheme.proportional(device_gflops)
    return PartitionScheme([length / n for length in lengths])
