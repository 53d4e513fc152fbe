"""Online-serving bench (``repro.bench serve``): throughput–latency sweep.

Runs the real engine — actual GPT-2 KV-cached decodes through the
continuous-batching worker loop — under a monotone sweep of offered load,
and emits ``BENCH_serve.json`` (schema ``repro-bench-serve/v2``) with
p50/p99 latency, throughput, shed rate and slot occupancy per point, plus
a 2× overload comparison of shedding vs no shedding.

Since v2 the report also carries a **speculative-decoding comparison**: the
``shared-prefix`` fleet trace replayed at saturating load through four
engine configurations — baseline greedy decode, speculative with the
n-gram self-drafting proposer, speculative with a truncated draft model,
and speculative combined with the cross-request radix prefix cache.  All
four must produce byte-identical outputs (greedy exact-match acceptance is
lossless); what changes is virtual-time tokens/s.  ``--check`` gates that
the outputs stay identical and every speedup stays above 1.0.

Determinism: time is *virtual* (:class:`~repro.engine.clock.VirtualClock`)
and every token step is charged a fixed analytic cost (the unscaled
:class:`~repro.fleet.tiers.ReplicaTier` price), so the sweep's
numbers depend only on the seed and the knobs — not on host speed.  That
is what lets ``--check`` require the payload to equal the committed
baseline exactly: a scheduling change that moves tail latency shows up as
a diff on any machine, with zero noise.

The documented overload bound (EXPERIMENTS "Online serving"): with
deadline shedding and an exact service estimate, an admitted request is
dispatched no later than ``deadline - service``, and with ``S`` slots its
service stretches at most ``S``-fold under step interleaving, so admitted
latency is bounded by ``slo + S × service``.  The no-shedding
configuration has no such bound — its queue grows without limit at 2×
load — and the report records both sides.
"""

from __future__ import annotations

import hashlib
from functools import partial
from pathlib import Path

import numpy as np

from repro.bench import harness
from repro.engine import (
    DraftModelProposer,
    EngineConfig,
    GPT2CachedSequencer,
    InferenceEngine,
    NgramProposer,
    SpeculativeSequencer,
    VirtualClock,
)
from repro.fleet.tiers import ReplicaTier
from repro.serving.arrivals import Request, poisson_arrivals

__all__ = [
    "SCHEMA",
    "step_cost",
    "request_cost",
    "run_serve_sweep",
    "run_speculative_comparison",
    "emit_report",
    "check_regression",
]

SCHEMA = "repro-bench-serve/v2"
emit_report = partial(harness.emit_report, schema=SCHEMA)

#: The analytic per-forward virtual price lives in one place, the fleet's
#: tier model: an unscaled, uncapped tier charges exactly
#: ``base + per_position·new + per_cached·cache``.
_PRICE = ReplicaTier("serve")
step_cost = _PRICE.step_cost
request_cost = _PRICE.request_cost


def _serve_model(quick: bool):
    from repro.models import GPT2Model
    from repro.models.config import gpt2_config

    config = gpt2_config().scaled(
        num_layers=2 if quick else 4,
        hidden_size=64,
        num_heads=4,
        ffn_dim=128,
        vocab_size=512,
        max_positions=64,
        name="gpt2-serve",
    )
    return GPT2Model(config, rng=np.random.default_rng(0))


def _point(report, offered_rps: float, ratio: float) -> dict:
    stats = report.stats() if report.completed else None
    return {
        "offered_rps": offered_rps,
        "offered_ratio": ratio,
        "requests": report.total_requests,
        "completed": len(report.completed),
        "shed": len(report.shed),
        "shed_rate": report.shed_rate,
        "throughput_rps": stats.throughput_rps if stats else 0.0,
        "p50_latency_s": stats.p50_latency if stats else None,
        "p99_latency_s": stats.p99_latency if stats else None,
        "mean_slot_occupancy": report.mean_slot_occupancy,
        "deadline_misses": stats.deadline_misses if stats else 0,
        "preemptions": report.preemptions_total,
    }


def run_serve_sweep(quick: bool = False, seed: int = 0) -> dict:
    """Run the offered-load sweep plus the overload demo; returns one mode's
    report payload (deterministic for a given ``quick``/``seed``)."""
    model = _serve_model(quick)
    max_new = 8
    prompt_tokens = (4, 12)
    num_requests = 48 if quick else 120
    num_slots = 4
    mean_prompt = sum(prompt_tokens) / 2
    service_s = request_cost(int(mean_prompt), max_new)
    worst_service_s = request_cost(prompt_tokens[1], max_new)
    capacity_rps = 1.0 / service_s
    slo_s = 8 * service_s

    def engine_for(shedding: bool) -> InferenceEngine:
        sequencer = GPT2CachedSequencer(
            model, max_new_tokens=max_new, step_cost=step_cost, prompt_seed=seed
        )
        config = EngineConfig(
            num_slots=num_slots,
            max_queue=3 * num_slots if shedding else None,
            shed_on_deadline=shedding,
            service_estimate=(
                (lambda r: request_cost(r.n, max_new)) if shedding else None
            ),
        )
        return InferenceEngine(sequencer, config, clock=VirtualClock())

    def stream(ratio: float, count: int) -> list[Request]:
        rate = ratio * capacity_rps
        return [
            r.with_slo(slo_s)
            for r in poisson_arrivals(count, rate=rate, n_tokens=prompt_tokens, seed=seed)
        ]

    sweep = []
    for ratio in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        report = engine_for(shedding=True).run(stream(ratio, num_requests))
        sweep.append(_point(report, ratio * capacity_rps, ratio))

    # 2× overload, shedding on vs off: the acceptance comparison.  The
    # stream is long enough that an unshed queue visibly diverges.
    bound_s = slo_s + num_slots * worst_service_s
    overload_stream = stream(2.0, 3 * num_requests)
    shed_report = engine_for(shedding=True).run(overload_stream)
    open_report = engine_for(shedding=False).run(overload_stream)
    shed_p99 = shed_report.stats().p99_latency
    open_p99 = open_report.stats().p99_latency
    overload = {
        "factor": 2.0,
        "latency_bound_s": bound_s,
        "with_shedding": {
            "p99_latency_s": shed_p99,
            "shed_rate": shed_report.shed_rate,
            "completed": len(shed_report.completed),
        },
        "without_shedding": {
            "p99_latency_s": open_p99,
            "shed_rate": open_report.shed_rate,
            "completed": len(open_report.completed),
        },
        "bound_held_with_shedding": shed_p99 <= bound_s,
        "bound_exceeded_without_shedding": open_p99 > bound_s,
    }

    return {
        "workload": {
            "model": model.config.name,
            "num_layers": model.config.num_layers,
            "prompt_tokens": list(prompt_tokens),
            "max_new_tokens": max_new,
            "num_requests": num_requests,
            "num_slots": num_slots,
            "slo_seconds": slo_s,
            "mean_service_seconds": service_s,
            "capacity_rps": capacity_rps,
            "seed": seed,
        },
        "sweep": sweep,
        "overload": overload,
        "speculative": run_speculative_comparison(quick=quick, seed=seed),
    }


# -- speculative decoding + prefix cache comparison ----------------------------


def _output_digest(completed) -> str:
    """Order-independent fingerprint of every served token sequence."""
    digest = hashlib.sha256()
    for record in sorted(completed, key=lambda c: c.request.id):
        digest.update(int(record.request.id).to_bytes(8, "little", signed=True))
        digest.update(np.ascontiguousarray(record.output, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def run_speculative_comparison(quick: bool = False, seed: int = 0) -> dict:
    """Replay the ``shared-prefix`` trace at saturating load through four
    engine configurations and measure virtual-time tokens/s.

    Configurations (all serve byte-identical tokens — the gate asserts it):

    - ``baseline`` — plain KV-cached greedy decode;
    - ``speculative-ngram`` — self-drafting n-gram proposer;
    - ``speculative-draft`` — one-layer truncated draft model proposer;
    - ``speculative-prefix-cache`` — n-gram proposer plus the cross-request
      radix prefix cache (retained prompt KV seeds same-tenant prefills).

    The trace is rescaled to offer ~9× one engine's capacity, so the
    makespan is service-bound and tokens/s measures decode efficiency
    rather than arrival gaps.
    """
    from repro.fleet.traces import build_trace

    model = _serve_model(quick)
    max_new = 8
    num_slots = 4
    lookahead = 4
    shared_prefix = 12  # tenant system-prompt length, < min prompt - 2
    trace = build_trace("shared-prefix", seed=seed, quick=quick)
    mean_prompt = sum(r.n for r in trace.requests) / len(trace.requests)
    service_s = request_cost(int(mean_prompt), max_new)
    # trace rate is 0.9 req/unit; one unit -> 0.1 service times ~= 9x capacity
    trace = trace.rescaled(0.1 * service_s)
    requests = list(trace.requests)

    def sequencer_kwargs():
        return dict(
            max_new_tokens=max_new,
            step_cost=step_cost,
            prompt_seed=seed,
            shared_prefix_tokens=shared_prefix,
        )

    configs = [
        ("baseline", lambda: GPT2CachedSequencer(model, **sequencer_kwargs()), False),
        (
            "speculative-ngram",
            lambda: SpeculativeSequencer(
                model, proposer=NgramProposer(), lookahead=lookahead, **sequencer_kwargs()
            ),
            False,
        ),
        (
            "speculative-draft",
            lambda: SpeculativeSequencer(
                model,
                proposer=DraftModelProposer(model.truncated_draft(1)),
                lookahead=lookahead,
                **sequencer_kwargs(),
            ),
            False,
        ),
        (
            "speculative-prefix-cache",
            lambda: SpeculativeSequencer(
                model, proposer=NgramProposer(), lookahead=lookahead, **sequencer_kwargs()
            ),
            True,
        ),
    ]

    results: dict[str, dict] = {}
    for name, make_sequencer, prefix_cache in configs:
        sequencer = make_sequencer()
        engine = InferenceEngine(
            sequencer,
            # no shedding: every config must serve the *identical* request
            # set or the output digests are not comparable
            EngineConfig(
                num_slots=num_slots, shed_on_deadline=False, prefix_cache=prefix_cache
            ),
            clock=VirtualClock(),
        )
        report = engine.run(requests)
        stats = report.stats()
        generated = sum(
            len(record.output) - min(record.request.n, model.config.max_positions)
            for record in report.completed
        )
        entry = {
            "completed": len(report.completed),
            "generated_tokens": generated,
            "makespan_s": report.makespan,
            "tokens_per_s": generated / report.makespan if report.makespan > 0 else 0.0,
            "p50_latency_s": stats.p50_latency,
            "p99_latency_s": stats.p99_latency,
            "steps_total": report.steps_total,
            "output_digest": _output_digest(report.completed),
        }
        spec_stats = getattr(sequencer, "stats", None)
        if spec_stats is not None:
            entry["speculative"] = spec_stats.as_dict()
        if report.prefix_cache is not None:
            entry["prefix_cache"] = report.prefix_cache
        results[name] = entry

    base_tps = results["baseline"]["tokens_per_s"]
    digests = {entry["output_digest"] for entry in results.values()}
    return {
        "workload": {
            "trace": trace.label,
            "trace_digest": trace.digest(),
            "num_requests": len(requests),
            "shared_prefix_tokens": shared_prefix,
            "lookahead": lookahead,
            "num_slots": num_slots,
            "max_new_tokens": max_new,
            "time_scale": trace.time_scale,
            "seed": seed,
        },
        "configs": results,
        "identical_outputs": len(digests) == 1,
        "speedups": {
            name: entry["tokens_per_s"] / base_tps if base_tps > 0 else 0.0
            for name, entry in results.items()
            if name != "baseline"
        },
    }


# -- report emission + regression gate ----------------------------------------


def check_regression(payload: dict, mode: str, baseline_path: Path) -> list[str]:
    """Gate this run against the committed baseline; [] means pass.  The
    payload must equal the baseline exactly, and the report's claims —
    the overload bound, lossless speculation, every speedup > 1.0 — must
    hold."""
    errors = harness.check_baseline(payload, mode, baseline_path, SCHEMA)
    overload = payload["overload"]
    if not overload["bound_held_with_shedding"]:
        errors.append(
            f"overload: shedding no longer holds p99 "
            f"{overload['with_shedding']['p99_latency_s']:.3f}s within the "
            f"{overload['latency_bound_s']:.3f}s bound"
        )
    if not overload["bound_exceeded_without_shedding"]:
        errors.append(
            "overload: the no-shedding configuration unexpectedly met the bound "
            "(the comparison no longer demonstrates anything)"
        )
    spec = payload.get("speculative")
    if spec is None:
        return errors + ["payload has no 'speculative' section"]
    if not spec["identical_outputs"]:
        errors.append(
            "speculative: output digests diverge across configs — speculation "
            "or the prefix cache is no longer lossless"
        )
    for name, speedup in spec["speedups"].items():
        if not speedup > 1.0:
            errors.append(
                f"speculative: {name} speedup {speedup:.3f}x is not > 1.0x baseline"
            )
    return errors
