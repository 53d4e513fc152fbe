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

The process-wide half of the policy is :func:`malloc_policy`: glibc's malloc
is held to one arena, so the temporaries the rank, session and reference
threads free go back to one heap that every thread reuses, instead of
staying resident in a private arena per thread (INTERNALS §9, "One malloc
arena").  Importing :mod:`repro.tensor` applies it, before any thread of
the package exists.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np

from repro.obs import current_tracer, get_registry

__all__ = ["GROWTH", "Workspace", "grow_flat", "malloc_policy"]

#: ``M_ARENA_MAX``, glibc's ``mallopt`` parameter capping its malloc arenas
#: (``malloc.h``).
_M_ARENA_MAX = -8

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


def _libc():
    """The C library this process runs on (its exported symbols)."""
    return ctypes.CDLL(None)


@functools.cache
def _single_arena() -> tuple[bool, str]:
    """Hold glibc's malloc to one arena — once per process (a forked rank
    inherits it).  ``(True, "glibc 2.36: one arena")`` once it took, else
    ``(False, why not)``: not glibc (``M_ARENA_MAX`` is glibc's parameter
    number; musl and macOS have no such cap), or glibc refused it."""
    try:
        libc = _libc()
        mallopt, version = libc.mallopt, libc.gnu_get_libc_version
    except (OSError, AttributeError) as error:
        return False, f"not glibc: {error}"
    mallopt.restype, mallopt.argtypes = ctypes.c_int, (ctypes.c_int, ctypes.c_int)
    if mallopt(_M_ARENA_MAX, 1) != 1:
        return False, "mallopt(M_ARENA_MAX, 1) refused"
    version.restype = ctypes.c_char_p
    return True, f"glibc {version().decode()}: one arena"


def malloc_policy() -> str:
    """The allocator policy in effect, in words (for reports): ``"glibc
    2.36: one arena"``, or the reason the process keeps its libc's default —
    reported once per reason and registry as a
    ``tensor.malloc_arena_disabled`` event, never raised."""
    applied, verdict = _single_arena()
    if not applied:
        seen = get_registry().counter("tensor.malloc_arena_disabled", reason=verdict)
        if not seen.value:
            seen.inc()
            with current_tracer().span("tensor.malloc_arena_disabled", cat="tensor", reason=verdict):
                pass
    return verdict


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
