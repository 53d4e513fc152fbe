"""Fleet bench (``repro.bench fleet``): router-policy sweep + autoscale demo.

Replays a registered workload trace (default ``diurnal``) across the
standard heterogeneous tier pool (full / int8 / linformer) once per router
policy, every run autoscaled, and emits ``BENCH_fleet.json`` (schema
``repro-bench-fleet/v1``): per-policy p50/p99 latency, shed and
deadline-miss rates, the replica-count envelope, per-tier utilisation —
plus sha256 digests of the routing decisions and the served token outputs.
``--check`` requires the whole payload to equal the committed baseline.

The acceptance demo (``autoscale`` block) contrasts a **fixed single
replica** with a bounded queue against the **autoscaled** fleet on the
diurnal trace: the fixed replica must visibly degrade (shed or miss
deadlines at the daily peak) while the autoscaled fleet holds admitted p99
within the engine's overload bound (``slo + num_slots × worst_service``,
see the serve bench) at a fraction of the shed rate.

Determinism: virtual time everywhere, seeded tier weights, seeded traces,
seeded routers — the payload contains no wall-clock fields, so two runs of
the same (trace, seed, policy, mode) produce byte-identical JSON.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path

import numpy as np

from repro.bench import harness
from repro.fleet import (
    Autoscaler,
    AutoscalerConfig,
    Fleet,
    FleetConfig,
    FleetReport,
    REFERENCE_PROMPT_LEN,
    ROUTER_POLICIES,
    build_tier_model,
    build_trace,
    make_router,
    make_tier_sequencer,
    standard_tiers,
)
from repro.obs.metrics import MetricsRegistry, use_registry

__all__ = [
    "SCHEMA",
    "run_fleet_sweep",
    "run_single_fleet",
    "emit_report",
    "check_regression",
]

SCHEMA = "repro-bench-fleet/v1"
emit_report = partial(harness.emit_report, schema=SCHEMA)

_MAX_NEW = 8
_NUM_SLOTS = 2
_LINFORMER_RANK = 16


def _fleet_model_config(quick: bool):
    from repro.models.config import gpt2_config

    return gpt2_config().scaled(
        num_layers=2 if quick else 4,
        hidden_size=64,
        num_heads=4,
        ffn_dim=128,
        vocab_size=512,
        max_positions=64,
        name="gpt2-fleet",
    )


def _digest_routing(report: FleetReport) -> str:
    raw = json.dumps(report.routing, separators=(",", ":")).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def _digest_outputs(report: FleetReport) -> str:
    digest = hashlib.sha256()
    for request_id, output in sorted(report.outputs().items()):
        digest.update(str(request_id).encode())
        digest.update(np.asarray(output).tobytes())
    return digest.hexdigest()[:16]


def _point(policy: str, report: FleetReport) -> dict:
    stats = report.stats()
    return {
        "policy": policy,
        "requests": report.total_requests,
        "completed": report.completed,
        "shed": len(report.shed),
        "shed_rate": report.shed_rate,
        "deadline_miss_rate": stats.deadline_miss_rate,
        "p50_latency_s": stats.p50_latency if stats.count else None,
        "p99_latency_s": stats.p99_latency if stats.count else None,
        "throughput_rps": stats.throughput_rps if stats.count else 0.0,
        "replicas_spawned": len(report.replicas),
        "peak_replicas": report.peak_replicas,
        "mean_replicas": report.mean_replicas,
        "scale_ups": sum(1 for _, kind, _ in report.scale_events if kind == "up"),
        "scale_downs": sum(1 for _, kind, _ in report.scale_events if kind == "down"),
        "tier_utilisation": report.tier_utilisation(),
        "routing_digest": _digest_routing(report),
        "outputs_digest": _digest_outputs(report),
    }


def run_fleet_sweep(quick: bool = False, seed: int = 0, trace_ref: str = "diurnal") -> dict:
    """Run the policy sweep plus the autoscale demo; returns one mode's
    payload (deterministic for a given ``quick``/``seed``/``trace_ref``)."""
    model_config = _fleet_model_config(quick)
    tiers = standard_tiers(linformer_rank=_LINFORMER_RANK)
    models: dict = {}
    tier_meta = []
    for tier in tiers:
        model, meta = build_tier_model(tier, model_config, weight_seed=seed)
        models[tier.name] = model
        meta["cost_scale"] = tier.cost_scale
        tier_meta.append(meta)

    full = tiers[0]
    service_s = full.request_cost(REFERENCE_PROMPT_LEN, _MAX_NEW)
    trace = build_trace(trace_ref, seed=seed, quick=quick)
    scaled = trace.rescaled(service_s)

    def factory(tier):
        return make_tier_sequencer(
            tier, models[tier.name], max_new_tokens=_MAX_NEW, prompt_seed=seed
        )

    fleet_config = FleetConfig(
        num_slots=_NUM_SLOTS,
        max_queue=3 * _NUM_SLOTS,
        shed_on_deadline=True,
        use_service_estimate=True,
        max_new_tokens=_MAX_NEW,
    )

    def scaler() -> Autoscaler:
        # thresholds in the trace's rescaled time base: the control loop ticks
        # once per mean service time, cooldowns span a few service times
        return Autoscaler(
            AutoscalerConfig(
                min_replicas=1,
                max_replicas=6,
                interval=service_s,
                up_cooldown=2 * service_s,
                down_cooldown=6 * service_s,
            )
        )

    def run_fleet(policy: str, autoscaled: bool) -> FleetReport:
        with use_registry(MetricsRegistry()):
            fleet = Fleet(
                tiers,
                factory,
                make_router(policy, seed=seed),
                autoscaler=scaler() if autoscaled else None,
                config=fleet_config,
            )
            return fleet.run(scaled.requests)

    sweep = [_point(policy, run_fleet(policy, autoscaled=True)) for policy in ROUTER_POLICIES]

    # -- acceptance demo: fixed single replica vs autoscaled, diurnal trace ----
    demo_trace = (
        scaled
        if trace.name == "diurnal"
        else build_trace("diurnal", seed=seed, quick=quick).rescaled(service_s)
    )
    slo_s = 8.0 * service_s  # the diurnal trace's SLO budget, rescaled
    worst_service_s = full.request_cost(12, _MAX_NEW)  # diurnal prompts are 4..12
    bound_s = slo_s + _NUM_SLOTS * worst_service_s

    def demo_run(autoscaled: bool) -> FleetReport:
        with use_registry(MetricsRegistry()):
            fleet = Fleet(
                tiers,
                factory,
                make_router("least-loaded"),
                autoscaler=scaler() if autoscaled else None,
                config=fleet_config,
            )
            return fleet.run(demo_trace.requests)

    fixed, auto = demo_run(False), demo_run(True)
    fixed_stats, auto_stats = fixed.stats(), auto.stats()
    autoscale = {
        "trace": demo_trace.label,
        "latency_bound_s": bound_s,
        "fixed": {
            "replicas": 1,
            "shed_rate": fixed.shed_rate,
            "deadline_miss_rate": fixed_stats.deadline_miss_rate,
            "p99_latency_s": fixed_stats.p99_latency if fixed_stats.count else None,
        },
        "autoscaled": {
            "peak_replicas": auto.peak_replicas,
            "mean_replicas": auto.mean_replicas,
            "shed_rate": auto.shed_rate,
            "deadline_miss_rate": auto_stats.deadline_miss_rate,
            "p99_latency_s": auto_stats.p99_latency if auto_stats.count else None,
        },
        "fixed_sheds_or_misses": (
            fixed.shed_rate >= 0.1 or fixed_stats.deadline_miss_rate >= 0.1
        ),
        "autoscaled_bound_held": (
            auto_stats.count > 0 and auto_stats.p99_latency <= bound_s
        ),
        "autoscaled_halves_shed": auto.shed_rate <= fixed.shed_rate / 2,
    }

    return {
        "workload": {
            "model": model_config.name,
            "num_layers": model_config.num_layers,
            "trace": scaled.label,
            "trace_digest": scaled.digest(),
            "num_requests": len(scaled),
            "num_slots": _NUM_SLOTS,
            "max_new_tokens": _MAX_NEW,
            "mean_service_seconds": service_s,
            "slo_seconds": slo_s,
            "tiers": tier_meta,
            "seed": seed,
        },
        "sweep": sweep,
        "autoscale": autoscale,
    }


def run_single_fleet(
    quick: bool = False,
    seed: int = 0,
    trace_ref: str = "diurnal",
    policy: str = "least-loaded",
    autoscaled: bool = True,
):
    """One fleet run under the bench's standard setup (tiers, sizing,
    autoscaler tuning); returns ``(report, trace, service_s)``.  This is the
    entry the ablation figure uses to plot a control timeline."""
    model_config = _fleet_model_config(quick)
    tiers = standard_tiers(linformer_rank=_LINFORMER_RANK)
    models = {
        tier.name: build_tier_model(tier, model_config, weight_seed=seed)[0]
        for tier in tiers
    }
    full = tiers[0]
    service_s = full.request_cost(REFERENCE_PROMPT_LEN, _MAX_NEW)
    trace = build_trace(trace_ref, seed=seed, quick=quick).rescaled(service_s)

    def factory(tier):
        return make_tier_sequencer(
            tier, models[tier.name], max_new_tokens=_MAX_NEW, prompt_seed=seed
        )

    autoscaler = (
        Autoscaler(
            AutoscalerConfig(
                min_replicas=1,
                max_replicas=6,
                interval=service_s,
                up_cooldown=2 * service_s,
                down_cooldown=6 * service_s,
            )
        )
        if autoscaled
        else None
    )
    with use_registry(MetricsRegistry()):
        fleet = Fleet(
            tiers,
            factory,
            make_router(policy, seed=seed),
            autoscaler=autoscaler,
            config=FleetConfig(
                num_slots=_NUM_SLOTS,
                max_queue=3 * _NUM_SLOTS,
                shed_on_deadline=True,
                use_service_estimate=True,
                max_new_tokens=_MAX_NEW,
            ),
        )
        report = fleet.run(trace.requests)
    return report, trace, service_s


# -- report emission + regression gate ----------------------------------------


def check_regression(payload: dict, mode: str, baseline_path: Path) -> list[str]:
    """Gate this run against the committed baseline; [] means pass.  Fleet
    runs are bit-deterministic, so the payload must equal the baseline
    exactly (regenerate the baseline if a change is intended), and the
    autoscale demo's claims must hold."""
    errors = harness.check_baseline(payload, mode, baseline_path, SCHEMA)
    autoscale = payload["autoscale"]
    if not autoscale["fixed_sheds_or_misses"]:
        errors.append(
            "autoscale demo: the fixed single replica no longer sheds or misses "
            "deadlines (the comparison no longer demonstrates anything)"
        )
    if not autoscale["autoscaled_bound_held"]:
        errors.append(
            f"autoscale demo: autoscaled p99 "
            f"{autoscale['autoscaled']['p99_latency_s']:.3f}s exceeds the "
            f"{autoscale['latency_bound_s']:.3f}s admitted-latency bound"
        )
    if not autoscale["autoscaled_halves_shed"]:
        errors.append(
            "autoscale demo: autoscaling no longer halves the fixed replica's "
            "shed rate"
        )
    return errors
