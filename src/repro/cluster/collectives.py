"""Collective communication: cost models and data operations.

Two halves that the tests tie together:

- **cost models** — α–β timing of the ring All-Gather / ring All-Reduce /
  broadcast / gather patterns used by the inference systems.  The per-device
  *volumes* implied here are exactly the paper's Section V-C numbers:
  All-Gather moves ``(K-1)/K`` of the activation per device and each
  All-Reduce moves ``2(K-1)/K`` of it, so two All-Reduces cost 4× one
  All-Gather.

- **data operations** — the corresponding array combinators
  (:func:`all_gather_arrays`, :func:`all_reduce_arrays`) used by the
  host-emulated execution paths and the threaded runtime.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.cluster.network import NetworkSpec

__all__ = [
    "all_gather_seconds",
    "all_reduce_seconds",
    "broadcast_seconds",
    "gather_seconds",
    "all_gather_volume_bytes",
    "all_reduce_volume_bytes",
    "all_gather_arrays",
    "all_reduce_arrays",
]


def _validate_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"participant count must be >= 1, got {k}")


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------


def all_gather_seconds(network: NetworkSpec, chunk_bytes: Sequence[float]) -> float:
    """Ring All-Gather of per-device chunks.

    K-1 steps; in each step every device forwards one chunk to its neighbour,
    so the step time is bounded by the largest chunk in flight.  With even
    chunks of ``S = N·F·4/K`` bytes this is ``(K-1)·(α + S/β)`` — per-device
    volume ``(K-1)·N·F·4/K``, the paper's Voltage number.
    """
    k = len(chunk_bytes)
    _validate_k(k)
    if k == 1:
        return 0.0
    largest = max(chunk_bytes)
    return (k - 1) * network.transfer_seconds(largest)


def all_reduce_seconds(network: NetworkSpec, total_bytes: float, k: int) -> float:
    """All-Reduce of a ``total_bytes`` tensor replicated on K devices.

    Recursive halving-doubling cost model (what gloo-style CPU backends
    approximate): ``2·ceil(log2 K)`` latency rounds plus the bandwidth term
    for the per-device volume ``2(K-1)·S/K`` — so the two All-Reduces of
    tensor parallelism move ``4(K-1)·N·F·4/K`` bytes per layer, the exact
    Section V-C accounting, while paying fewer latency rounds than a ring
    would (being generous to the tensor-parallel baseline).
    """
    _validate_k(k)
    if k == 1 or total_bytes == 0:
        return 0.0
    rounds = 2 * math.ceil(math.log2(k))
    volume = 2 * (k - 1) * total_bytes / k
    return rounds * network.latency_seconds + network.serialization_seconds(volume)


def broadcast_seconds(network: NetworkSpec, nbytes: float, k: int) -> float:
    """Terminal → K computing devices broadcast of the input features: a
    binomial tree, ``ceil(log2(K+1))`` full-message steps.  Voltage and
    tensor parallelism pay it alike (both broadcast once per request).
    """
    _validate_k(k)
    if nbytes == 0:
        return 0.0
    steps = math.ceil(math.log2(k + 1))
    return steps * network.transfer_seconds(nbytes)


def gather_seconds(network: NetworkSpec, chunk_bytes: Sequence[float]) -> float:
    """K devices → terminal gather; arrivals serialise on the terminal NIC."""
    _validate_k(len(chunk_bytes))
    return sum(network.transfer_seconds(b) for b in chunk_bytes if b > 0)


def all_gather_volume_bytes(chunk_bytes: Sequence[float]) -> float:
    """Per-device traffic (sent + received) of the ring All-Gather.

    Each device forwards K-1 chunks and receives K-1 chunks; with even
    chunks the *received* payload alone is ``(K-1)/K`` of the tensor — the
    paper counts one direction, and so do we.
    """
    k = len(chunk_bytes)
    _validate_k(k)
    total = sum(chunk_bytes)
    return total - max(chunk_bytes) if k > 1 else 0.0


def all_reduce_volume_bytes(total_bytes: float, k: int) -> float:
    """Per-device one-directional traffic of a ring All-Reduce."""
    _validate_k(k)
    return 2 * (k - 1) * total_bytes / k if k > 1 else 0.0


# ---------------------------------------------------------------------------
# Data operations
# ---------------------------------------------------------------------------


def all_gather_arrays(parts: Sequence[np.ndarray], axis: int = 0) -> np.ndarray:
    """Reassemble the full tensor from ordered per-device partitions."""
    if not parts:
        raise ValueError("all_gather needs at least one partition")
    return np.concatenate(list(parts), axis=axis)


def all_reduce_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Element-wise sum of per-device partial tensors."""
    if not arrays:
        raise ValueError("all_reduce needs at least one array")
    out = np.array(arrays[0], copy=True)
    for arr in arrays[1:]:
        if arr.shape != out.shape:
            raise ValueError(f"all_reduce shape mismatch: {arr.shape} vs {out.shape}")
        out += arr
    return out
