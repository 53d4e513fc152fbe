"""Latency simulation for distributed inference protocols.

:class:`ClusterSim` holds bulk-synchronous helpers matching the structure of
Algorithm 2 (and of tensor parallelism): per-layer *compute makespan* (the
slowest device gates the All-Gather) followed by collective time. This is
exact for barrier-style protocols, which is what both Voltage and
tensor-parallel inference are.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cluster import collectives
from repro.cluster.spec import ClusterSpec
from repro.obs.tracer import current_tracer

__all__ = ["ClusterSim"]


class ClusterSim:
    """Cost helpers for bulk-synchronous protocols on a :class:`ClusterSpec`.

    Every call is mirrored into the active tracer (cat ``"sim"``, modeled
    time, byte annotations) so a traced run shows the simulator's view of
    the protocol alongside the request's critical-path phases.
    """

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster

    @property
    def k(self) -> int:
        return self.cluster.num_devices

    def _record(
        self,
        name: str,
        kind: str,
        seconds: float,
        nbytes: float | None = None,
        **annotations,
    ) -> float:
        current_tracer().record_modeled(
            name, cat="sim", kind=kind, seconds=seconds, track="simulator", nbytes=nbytes,
            **annotations,
        )
        return seconds

    # -- compute -------------------------------------------------------------

    def compute_makespan(self, flops_per_device: Sequence[float]) -> float:
        """Barrier compute time: every device must finish before the collective."""
        if len(flops_per_device) != self.k:
            raise ValueError(
                f"expected {self.k} per-device FLOP counts, got {len(flops_per_device)}"
            )
        seconds = max(
            device.compute_seconds(flops)
            for device, flops in zip(self.cluster.devices, flops_per_device)
        )
        return self._record("compute_makespan", "compute", seconds)

    def terminal_compute(self, flops: float) -> float:
        seconds = self.cluster.terminal_device.compute_seconds(flops)
        return self._record("terminal_compute", "compute", seconds)

    # -- collectives ---------------------------------------------------------

    def all_gather(self, chunk_bytes: Sequence[float]) -> float:
        seconds = collectives.all_gather_seconds(self.cluster.network, chunk_bytes)
        return self._record("all_gather", "comm", seconds, nbytes=sum(chunk_bytes))

    def all_gather_overlapped(
        self, chunk_bytes: Sequence[float], hideable_seconds: float
    ) -> tuple[float, float]:
        """All-gather with ``hideable_seconds`` of concurrent compute available.

        Returns ``(exposed, full)``: the full ring time and the part of it
        left on the critical path after overlapping —
        ``exposed = max(0, full - hideable)``.  ``hideable_seconds`` is the
        *minimum over devices* of the compute each can run while its ring is
        in flight (next-layer own-partition Q projection), which makes the
        exposed figure a conservative bound on the true overlapped makespan:
        ``max_d(max(comm - hide_d, 0)) <= max(comm - min_d hide_d, 0)`` when
        comm dominates, and the barrier structure absorbs the rest.
        """
        if hideable_seconds < 0:
            raise ValueError(f"hideable compute must be >= 0, got {hideable_seconds}")
        full = collectives.all_gather_seconds(self.cluster.network, chunk_bytes)
        exposed = max(0.0, full - hideable_seconds)
        self._record(
            "all_gather_overlapped", "comm", exposed,
            nbytes=sum(chunk_bytes), hidden_s=full - exposed,
        )
        return exposed, full

    def all_reduce(self, total_bytes: float) -> float:
        seconds = collectives.all_reduce_seconds(self.cluster.network, total_bytes, self.k)
        return self._record("all_reduce", "comm", seconds, nbytes=total_bytes)

    def broadcast(self, nbytes: float) -> float:
        seconds = collectives.broadcast_seconds(self.cluster.network, nbytes, self.k)
        return self._record("broadcast", "comm", seconds, nbytes=nbytes)

    def gather(self, chunk_bytes: Sequence[float]) -> float:
        seconds = collectives.gather_seconds(self.cluster.network, chunk_bytes)
        return self._record("gather", "comm", seconds, nbytes=sum(chunk_bytes))

    def point_to_point(self, nbytes: float) -> float:
        seconds = self.cluster.network.transfer_seconds(nbytes)
        return self._record("point_to_point", "comm", seconds, nbytes=nbytes)

