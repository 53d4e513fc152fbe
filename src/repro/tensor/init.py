"""Seeded weight initialisers.

The paper evaluates inference latency, which is independent of weight
*values* — only shapes matter.  We still initialise with standard schemes so
that activations stay in a realistic numeric range (softmax saturation would
otherwise make the attention outputs degenerate and hide numerical bugs in
the reordered computation paths).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["normal", "uniform", "xavier_uniform", "kaiming_uniform", "zeros", "ones"]


#: Elements one seeded draw materialises at a time (1 MiB of float64).
_CHUNK = 1 << 17


def _filled(draw, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """A ``shape``/``dtype`` array of seeded draws, ``draw(size)`` producing
    the Generator's native float64 — filled in fixed chunks, so the float64
    transient is one chunk rather than a second, twice-as-wide copy of the
    whole tensor (308 MB for GPT-2's embedding table).  A Generator's stream
    is sequential: the values are those of one whole-shape draw."""
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        stop = min(start + _CHUNK, flat.size)
        flat[start:stop] = draw(stop - start)
    return out


def zeros(shape: tuple[int, ...], dtype: str = "float32") -> np.ndarray:
    return np.zeros(shape, dtype=dtype)


def ones(shape: tuple[int, ...], dtype: str = "float32") -> np.ndarray:
    return np.ones(shape, dtype=dtype)


def normal(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    std: float = 0.02,
    dtype: str = "float32",
) -> np.ndarray:
    """BERT/GPT-2 style truncated-ish normal init (std 0.02)."""
    return _filled(lambda size: rng.normal(0.0, std, size=size), shape, dtype)


def uniform(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    low: float,
    high: float,
    dtype: str = "float32",
) -> np.ndarray:
    return _filled(lambda size: rng.uniform(low, high, size=size), shape, dtype)


def xavier_uniform(
    rng: np.random.Generator, shape: tuple[int, int], dtype: str = "float32"
) -> np.ndarray:
    """Glorot uniform for ``(fan_in, fan_out)`` matrices."""
    fan_in, fan_out = shape
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return uniform(rng, shape, -bound, bound, dtype=dtype)


def kaiming_uniform(
    rng: np.random.Generator, shape: tuple[int, int], dtype: str = "float32"
) -> np.ndarray:
    """He uniform for ReLU fan-in matrices ``(fan_in, fan_out)``."""
    fan_in = shape[0]
    bound = math.sqrt(6.0 / fan_in)
    return uniform(rng, shape, -bound, bound, dtype=dtype)
