"""Replica tiers and the serving price: what a replica runs and what it costs.

A fleet is rarely homogeneous: the paper's edge clusters mix device classes,
and a serving fleet mixes *model* classes.  A :class:`ReplicaTier` names
what distinguishes a replica class — its weights: the ``int8`` tier really
quantizes its model with :func:`repro.compress.quantize.quantize_model_`, so
its outputs are the quantized model's, deterministically different from
``full``'s.

Every tier is priced by the one device model that prices the paper:
:func:`repro.systems.decode.pass_seconds` on :data:`SERVE_DEVICE`, charged
once per engine pass (``make_tier_sequencer``'s cost hook).  The ``int8``
tier pays the full tier's price, because float arithmetic is what runs: its
weights are quantized and dequantized in place, as in standard PTQ
evaluation.  :func:`request_seconds`, a lone request's price, is what the
router and the engine's deadline shedding estimate a request's work with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.cluster.device import DeviceSpec
from repro.systems.decode import decode_step_totals, pass_seconds

__all__ = [
    "SERVE_DEVICE",
    "ReplicaTier",
    "request_seconds",
    "standard_tiers",
    "build_tier_model",
    "make_tier_sequencer",
]

#: The serving host: ``gflops`` and ``overhead_seconds`` fitted by least
#: squares (relative error) to the wall time of 36 ``argmax_cached_rows``
#: passes of the serve and fleet benches' 2- and 4-layer models on one BLAS
#: thread — prefills, decode rounds, verify rounds and mixed passes (script,
#: timings and per-shape error: EXPERIMENTS "One cost model").
SERVE_DEVICE = DeviceSpec("serve-host", gflops=4.0, overhead_seconds=2.6e-4)


@dataclass(frozen=True)
class ReplicaTier:
    """One replica class: a name and the model variant it serves."""

    name: str
    description: str = ""
    quantized: bool = False  # apply int8 fake quantization to the weights

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier needs a non-empty name")


def request_seconds(config, prompt_len: int, max_new_tokens: int) -> float:
    """Virtual seconds of one request served alone on :data:`SERVE_DEVICE`:
    the lone pass prices of its forwards — ``decode_step_totals``', over the
    prompt clipped to the position budget, as ``prompt_for`` clips it: the
    prefill, then one single-position verify per later kept token (none for
    a request that keeps no token)."""
    prompt_len = min(prompt_len, config.max_positions)
    totals = decode_step_totals(prompt_len, max_new_tokens, config.max_positions)
    return sum(
        pass_seconds(
            config, SERVE_DEVICE, [(1, total - 1, True) if step else (prompt_len, 0, False)]
        )
        for step, total in enumerate(totals)
    )


def standard_tiers() -> tuple[ReplicaTier, ReplicaTier]:
    """The two-tier pool the fleet bench runs: full and int8."""
    return (
        ReplicaTier("full", description="full-fidelity GPT-2"),
        ReplicaTier(
            "int8",
            description="weights int8-quantized (compress.quantize), full-tier price",
            quantized=True,
        ),
    )


def build_tier_model(tier: ReplicaTier, config, weight_seed: int = 0):
    """Instantiate the tier's model: shared GPT-2 weights (seeded), with the
    ``int8`` tier's weights fake-quantized in place.  Returns ``(model,
    meta)`` where ``meta`` records what the tier did to the weights."""
    from repro.compress.quantize import quantize_model_
    from repro.models import GPT2Model

    model = GPT2Model(config, rng=np.random.default_rng(weight_seed))
    meta: dict = {"tier": tier.name, "quantized": False}
    if tier.quantized:
        report = quantize_model_(model)
        meta.update(
            quantized=True,
            compression_ratio=round(report.compression_ratio, 3),
            max_abs_error=report.max_abs_error,
        )
    return model, meta


def make_tier_sequencer(
    model,
    max_new_tokens: int = 8,
    prompt_seed: int = 0,
    shared_prefix_tokens: int = 0,
):
    """A :class:`~repro.engine.GPT2CachedSequencer` over a tier's ``model``
    charging each pass :func:`~repro.systems.decode.pass_seconds` on
    :data:`SERVE_DEVICE`.  ``prompt_seed`` must be fleet-wide so a request's
    prompt does not depend on which replica serves it;
    ``shared_prefix_tokens`` (also fleet-wide) opens every tenant's prompts
    with that tenant's deterministic system-prompt prefix — the workload
    shape the engine's cross-request prefix cache reuses."""
    from repro.engine import GPT2CachedSequencer

    return GPT2CachedSequencer(
        model,
        max_new_tokens=max_new_tokens,
        step_cost=partial(pass_seconds, model.config, SERVE_DEVICE),
        prompt_seed=prompt_seed,
        shared_prefix_tokens=shared_prefix_tokens,
    )
