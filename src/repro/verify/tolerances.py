"""Dtype-aware tolerance policy for the differential conformance checks.

Three distinct comparison regimes, in decreasing strictness:

1. **bit-identity** — the simulated (``run``) and threaded
   (``execute_threaded``) wire paths execute the *same* arithmetic on the
   *same* encoded arrays, so their outputs must agree to the last bit; any
   difference is a protocol divergence, never float noise.

2. **dtype-aware closeness** — a distributed output vs. the single-device
   reference.  float32 runs differ from the reference only by re-associated
   float arithmetic (partitioned attention, partial sums), so the bound is
   tight; float16/int8 wire encodings are *deliberately* lossy, and their
   bounds reflect the quantisation step compounded across layers.

3. **analytic-vs-simulated timing** — the config-driven latency model and
   the system's :class:`LatencyBreakdown` are the same timeline function
   over the same shapes, so they must agree to relative ``1e-9`` (no
   modelling slack); a difference means ``run()`` priced other settings
   than its own.

The closeness bounds are *scale-aware*: the absolute term is multiplied by
``max(1, max|reference|)`` so that a GPT-2 logit vector with entries in the
hundreds is judged by the same relative yardstick as a BERT 3-class head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "OUTPUT_TOLERANCES",
    "DECODE_CLOSENESS",
    "ANALYTIC_REL_TOL",
    "output_tolerance",
    "outputs_close",
    "decode_closeness",
    "decode_logits_close",
    "benign_argmax_tie",
    "max_abs_diff",
]

#: Relative bound for analytic-vs-simulated per-phase timing agreement.
ANALYTIC_REL_TOL = 1e-9


@dataclass(frozen=True)
class Tolerance:
    """An ``allclose``-style (rtol, atol) pair."""

    rtol: float
    atol: float


#: Per-wire-dtype output bounds (atol is scaled by the reference magnitude).
OUTPUT_TOLERANCES = {
    "float32": Tolerance(rtol=1e-5, atol=2e-4),
    "float16": Tolerance(rtol=2e-2, atol=1e-1),
    "int8": Tolerance(rtol=8e-2, atol=4.5e-1),
}


def output_tolerance(wire_dtype: str, reference: np.ndarray) -> Tolerance:
    """The bound for comparing a distributed output against ``reference``."""
    base = OUTPUT_TOLERANCES[wire_dtype]
    scale = max(1.0, float(np.max(np.abs(reference)))) if reference.size else 1.0
    return Tolerance(rtol=base.rtol, atol=base.atol * scale)


def outputs_close(output: np.ndarray, reference: np.ndarray, wire_dtype: str) -> bool:
    if output.shape != reference.shape:
        return False
    tol = output_tolerance(wire_dtype, reference)
    return bool(np.allclose(output, reference, rtol=tol.rtol, atol=tol.atol))


#: Regime-2 bounds for *distributed-attention decode* logits against the
#: single-device ``generate_cached`` reference.  The only error sources are
#: the log-sum-exp combine's float re-association (per shard, per layer) and
#: — on a float16 wire — one rounding of the combine stats per layer; both
#: are far smaller than a whole forward pass of lossy activation encoding,
#: so the bounds are tighter than :data:`OUTPUT_TOLERANCES`.  ``int8``
#: systems keep float32 combine stats (the affine activation codec is not
#: calibrated for running-max/normaliser pairs), so their decode bound is
#: the float32 one.
DECODE_CLOSENESS = {
    "float32": Tolerance(rtol=1e-5, atol=1e-5),
    "float16": Tolerance(rtol=1e-2, atol=2e-2),
    "int8": Tolerance(rtol=1e-5, atol=1e-5),
}


def decode_closeness(wire_dtype: str) -> Tolerance:
    """The regime-2 bound for a distributed-attention decode on this wire."""
    return DECODE_CLOSENESS[wire_dtype]


def decode_logits_close(
    logits: np.ndarray, reference: np.ndarray, wire_dtype: str
) -> bool:
    """Scale-aware closeness of decode logits against the reference's.

    Like :func:`outputs_close`, the absolute term is scaled by the
    reference magnitude so tiny fuzz models and GPT-2-sized logits are
    judged by the same relative yardstick.
    """
    if logits.shape != reference.shape:
        return False
    tol = decode_closeness(wire_dtype)
    scale = max(1.0, float(np.max(np.abs(reference)))) if reference.size else 1.0
    return bool(np.allclose(logits, reference, rtol=tol.rtol, atol=tol.atol * scale))


def benign_argmax_tie(reference_logits: np.ndarray, wire_dtype: str) -> bool:
    """Whether a greedy-token divergence at this step is a benign tie.

    Distributed-attention logits sit within the closeness band of the
    reference; when the reference's top two logits are closer than that
    band, ``argmax`` may legitimately flip — the decode is still correct to
    tolerance, it just broke a float tie the other way.  Returns True when
    the reference top-2 gap is within the decode closeness bound (i.e. a
    flip is explainable by in-tolerance noise), False when the gap is wide
    and a divergence would be a real defect.
    """
    flat = np.asarray(reference_logits, dtype=np.float64).ravel()
    if flat.size < 2:
        return False
    top2 = np.partition(flat, -2)[-2:]
    gap = float(top2[1] - top2[0])
    tol = decode_closeness(wire_dtype)
    scale = max(1.0, float(np.max(np.abs(flat))))
    # both logits may each be off by the band, so a 2x-band gap can flip
    return gap <= 2.0 * (tol.rtol * scale + tol.atol * scale)


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64) - b)))
