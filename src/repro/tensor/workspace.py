"""Named scratch-buffer workspace for allocation-free hot loops.

A KV-cached decode step runs the same op sequence with the same shapes every
iteration; allocating fresh arrays for each softmax/layer-norm/GELU output
churns the allocator for no benefit.  A :class:`Workspace` owns one flat
buffer per *named* slot, grown geometrically and handed back as a reshaped
view, so a steady-state decode step performs zero scratch allocations.

Ownership rules (also documented in INTERNALS §9):

- the workspace owns the memory; callers receive *views* that are only valid
  until the same slot name is requested again;
- distinct live intermediates within one computation must use distinct slot
  names — the workspace never checks aliasing between slots;
- anything that must survive the next request of a slot (a layer's returned
  hidden state, tokens, logits) must be a fresh array, not a workspace view.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GROWTH", "Workspace", "grow_flat"]

#: A flat buffer too small for a request regrows to this many times its
#: size, or to the request if larger.
GROWTH = 2


def grow_flat(flat: np.ndarray | None, needed: int, dtype) -> np.ndarray:
    """``flat`` itself if it holds ``needed`` elements, else a fresh flat
    ``dtype`` buffer of ``max(needed, GROWTH * flat.size)`` elements (just
    ``needed`` when ``flat`` is None) — amortised O(1) allocations over a
    growing sequence of requests."""
    if flat is not None and flat.size >= needed:
        return flat
    capacity = needed if flat is None else max(needed, GROWTH * flat.size)
    return np.empty(capacity, dtype=dtype)


class Workspace:
    """A pool of named, geometrically grown scratch buffers."""

    def __init__(self) -> None:
        self._flat: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.allocations = 0  # buffer (re)allocations — tier-1 tests pin this
        self.requests = 0

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """An uninitialised ``shape``/``dtype`` view of the named slot.

        The backing buffer is reused across calls and grown by
        :func:`grow_flat` when the request outgrows it, e.g. the per-step
        attention-score rows of a lengthening decode.
        """
        dtype = np.dtype(dtype)
        needed = math.prod(shape)
        key = (name, dtype)
        held = self._flat.get(key)
        flat = grow_flat(held, needed, dtype)
        if flat is not held:
            self._flat[key] = flat
            self.allocations += 1
        self.requests += 1
        return flat[:needed].reshape(shape)

    def nbytes(self) -> int:
        """Total bytes currently held by the workspace."""
        return sum(buf.nbytes for buf in self._flat.values())

    def clear(self) -> None:
        self._flat.clear()
