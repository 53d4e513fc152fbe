"""Heterogeneous network topology: per-device NIC bandwidths.

The paper caps every VM at the same rate; real edge clusters mix radios
(a phone on Wi-Fi next to a desktop on Ethernet).  This module models
per-device NIC bandwidths and computes collective times *exactly* for the
ring All-Gather — step by step, tracking which chunk crosses which link —
instead of assuming a uniform link rate.

Key consequence, exploited by :func:`comm_aware_scheme`: in a ring
All-Gather every chunk crosses every link (including the slow ones), so the
total is governed by the *largest* chunk per step — skewed partitions hurt
communication even when they help compute.  Joint optimisation therefore
pulls a compute-proportional plan back toward even chunks exactly as much
as the compute/communication balance warrants.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

__all__ = [
    "HeterogeneousNetwork",
    "ring_all_gather_seconds_exact",
    "comm_aware_scheme",
]


@dataclass(frozen=True)
class HeterogeneousNetwork:
    """Per-device NIC rates plus shared latency/efficiency parameters.

    ``device_bandwidth_mbps[i]`` is device ``i``'s NIC rate; a transfer
    from ``i`` to ``j`` runs at ``min`` of the two NICs (the standard
    bottleneck model).  The terminal uses ``terminal_bandwidth_mbps``.
    """

    device_bandwidth_mbps: tuple[float, ...]
    latency_seconds: float = 4e-3
    efficiency: float = 0.55
    terminal_bandwidth_mbps: float = 500.0

    def __post_init__(self) -> None:
        if not self.device_bandwidth_mbps:
            raise ValueError("need at least one device bandwidth")
        if any(b <= 0 for b in self.device_bandwidth_mbps):
            raise ValueError(f"bandwidths must be positive: {self.device_bandwidth_mbps}")
        if self.terminal_bandwidth_mbps <= 0:
            raise ValueError("terminal bandwidth must be positive")
        if not (0 < self.efficiency <= 1):
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.latency_seconds < 0:
            raise ValueError("latency must be >= 0")

    @property
    def num_devices(self) -> int:
        return len(self.device_bandwidth_mbps)

    def _bps(self, mbps: float) -> float:
        return mbps * 1e6 / 8.0 * self.efficiency

    def link_bytes_per_second(self, src: int, dst: int) -> float:
        """Achievable rate from device ``src`` to device ``dst``."""
        k = self.num_devices
        if not (0 <= src < k and 0 <= dst < k) or src == dst:
            raise ValueError(f"invalid link ({src}, {dst}) for {k} devices")
        return self._bps(
            min(self.device_bandwidth_mbps[src], self.device_bandwidth_mbps[dst])
        )

    def terminal_link_bytes_per_second(self, device: int) -> float:
        if not (0 <= device < self.num_devices):
            raise ValueError(f"invalid device {device}")
        return self._bps(
            min(self.terminal_bandwidth_mbps, self.device_bandwidth_mbps[device])
        )

    def slowest_bytes_per_second(self) -> float:
        return self._bps(min(self.device_bandwidth_mbps))


def ring_all_gather_seconds_exact(
    network: HeterogeneousNetwork, chunk_bytes: Sequence[float]
) -> float:
    """Exact ring All-Gather time on heterogeneous links.

    Devices form the ring ``0 → 1 → … → K-1 → 0``.  At step ``s`` device
    ``i`` forwards the chunk that originated at device ``(i - s) mod K``;
    the step completes when the slowest (link, chunk) pair finishes.  For
    uniform links and chunks this reduces to the homogeneous formula
    ``(K-1)·(α + chunk/β)`` (asserted by the tests).
    """
    k = network.num_devices
    if len(chunk_bytes) != k:
        raise ValueError(f"expected {k} chunks, got {len(chunk_bytes)}")
    if k == 1:
        return 0.0
    total = 0.0
    for step in range(k - 1):
        step_time = 0.0
        for device in range(k):
            source_chunk = chunk_bytes[(device - step) % k]
            rate = network.link_bytes_per_second(device, (device + 1) % k)
            step_time = max(
                step_time, network.latency_seconds + source_chunk / rate
            )
        total += step_time
    return total


def comm_aware_scheme(
    config,
    n: int,
    device_gflops: Sequence[float],
    network: HeterogeneousNetwork,
    policy=None,
):
    """Jointly optimise compute makespan + All-Gather time over ratios.

    Continuous relaxation solved with SciPy's SLSQP (simplex constraint),
    then rounded back to integer position counts.  The objective is one
    layer's critical path:

        max_i compute_i(p_i)  +  ring_all_gather(p · F · 4 bytes)

    In comm-dominated regimes this de-skews compute-proportional plans
    (the ring time tracks the largest chunk); in compute-dominated regimes
    it reproduces them.  Falls back to the compute-only makespan scheme if
    the solver fails to improve on it.
    """
    from scipy import optimize

    from repro.core.layer import OrderPolicy
    from repro.core.partition import PartitionScheme
    from repro.core.planner import makespan_optimal_scheme

    policy = policy if policy is not None else OrderPolicy()
    k = len(device_gflops)
    if network.num_devices != k:
        raise ValueError(f"network covers {network.num_devices} devices, got {k} speeds")
    if k == 1:
        return PartitionScheme.single()
    f = config.hidden_size

    def layer_time(ratios: np.ndarray) -> float:
        lengths = np.maximum(ratios, 0.0) * n
        compute = max(
            policy.layer_flops(config, n, max(1, int(round(p)))) / (g * 1e9)
            if p > 0.5 else 0.0
            for p, g in zip(lengths, device_gflops)
        )
        chunks = [p * f * 4 for p in lengths]
        return compute + ring_all_gather_seconds_exact(network, chunks)

    baseline = makespan_optimal_scheme(config, n, list(device_gflops), policy=policy)
    start = np.array(baseline.ratios)
    result = optimize.minimize(
        layer_time,
        start,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * k,
        constraints=[{"type": "eq", "fun": lambda r: float(np.sum(r) - 1.0)}],
        options={"maxiter": 200, "ftol": 1e-10},
    )
    candidate_ratios = result.x if result.success else start
    # round to integer position counts that sum to n
    lengths = np.floor(np.maximum(candidate_ratios, 0.0) * n).astype(int)
    remainder = n - int(lengths.sum())
    fractional = candidate_ratios * n - lengths
    for index in np.argsort(fractional)[::-1][:remainder]:
        lengths[index] += 1
    if lengths.sum() != n:  # pathological rounding — fall back
        return baseline
    candidate = PartitionScheme([length / n for length in lengths])

    def scheme_time(scheme: PartitionScheme) -> float:
        parts = scheme.positions(n)
        compute = max(
            (policy.layer_flops(config, n, part.length) / (g * 1e9)) if part.length else 0.0
            for part, g in zip(parts, device_gflops)
        )
        chunks = [part.length * f * 4 for part in parts]
        return compute + ring_all_gather_seconds_exact(network, chunks)

    return candidate if scheme_time(candidate) <= scheme_time(baseline) else baseline
