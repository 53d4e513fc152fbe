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

__all__ = ["Workspace"]


class Workspace:
    """A pool of named, geometrically grown scratch buffers."""

    def __init__(self) -> None:
        self._flat: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.allocations = 0  # buffer (re)allocations — tier-1 tests pin this
        self.requests = 0

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """An uninitialised ``shape``/``dtype`` view of the named slot.

        The backing buffer is reused across calls and grown geometrically
        (2× or to the requested size, whichever is larger) when the request
        outgrows it — amortised O(1) allocations over a growing sequence,
        e.g. the per-step attention-score rows of a lengthening decode.
        """
        dtype = np.dtype(dtype)
        needed = math.prod(shape)
        key = (name, dtype)
        flat = self._flat.get(key)
        if flat is None or flat.size < needed:
            capacity = needed if flat is None else max(needed, 2 * flat.size)
            flat = np.empty(capacity, dtype=dtype)
            self._flat[key] = flat
            self.allocations += 1
        self.requests += 1
        return flat[:needed].reshape(shape)

    def nbytes(self) -> int:
        """Total bytes currently held by the workspace."""
        return sum(buf.nbytes for buf in self._flat.values())

    def clear(self) -> None:
        self._flat.clear()
