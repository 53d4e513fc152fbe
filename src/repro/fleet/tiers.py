"""The serving price: what a replica's passes and requests cost.

Every replica runs the same model and is priced by the one device model
that prices the paper: :func:`repro.systems.decode.pass_seconds` on
:data:`SERVE_DEVICE`, charged once per engine pass
(``make_tier_sequencer``'s cost hook).  :func:`request_seconds`, a lone
request's price, is what the engine's deadline shedding and the benches'
time bases estimate a request's work with.
"""

from __future__ import annotations

from functools import partial

from repro.cluster.device import DeviceSpec
from repro.systems.decode import decode_step_totals, pass_seconds

__all__ = [
    "SERVE_DEVICE",
    "request_seconds",
    "make_tier_sequencer",
]

#: The serving host: ``gflops`` and ``overhead_seconds`` fitted by least
#: squares (relative error) to the wall time of 36 ``argmax_cached_rows``
#: passes of the serve and fleet benches' 2- and 4-layer models on one BLAS
#: thread — prefills, decode rounds, verify rounds and mixed passes (script,
#: timings and per-shape error: EXPERIMENTS "One cost model").
SERVE_DEVICE = DeviceSpec("serve-host", gflops=4.0, overhead_seconds=2.6e-4)


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


def make_tier_sequencer(
    model,
    max_new_tokens: int = 8,
    prompt_seed: int = 0,
    shared_prefix_tokens: int = 0,
):
    """A :class:`~repro.engine.GPT2CachedSequencer` over ``model``
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
