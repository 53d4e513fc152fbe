"""Fleet bench (``repro.bench fleet``): router-policy sweep + autoscale demo.

Replays a registered workload trace (default ``diurnal``) across a pool of
replicas of one seeded model once per router policy, every run autoscaled,
and emits ``BENCH_fleet.json`` (schema ``repro-bench-fleet/v1``):
per-policy p50/p99 latency, shed and deadline-miss rates, the replica-count
envelope — plus sha256 digests of the routing decisions and the served
token outputs.
``--check`` requires the whole payload to equal the committed baseline.

The acceptance demo (``autoscale`` block) contrasts a **fixed single
replica** with a bounded queue against the **autoscaled** fleet on the
diurnal trace: the fixed replica must visibly degrade (shed or miss
deadlines at the daily peak) while the autoscaled fleet holds admitted p99
within the engine's overload bound (``slo + num_slots × worst_service``,
see the serve bench) at a fraction of the shed rate.

Determinism: virtual time everywhere, seeded weights, seeded traces,
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
    ROUTER_POLICIES,
    build_trace,
    make_router,
    make_tier_sequencer,
    request_seconds,
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
#: Prompt length of the reference request whose lone price is the fleet's
#: time base: the autoscaler's tick and cooldowns, the trace's rescaling.
REFERENCE_PROMPT_LEN = 8
_NUM_SLOTS = 2
_FLEET_CONFIG = FleetConfig(num_slots=_NUM_SLOTS, max_queue=3 * _NUM_SLOTS, max_new_tokens=_MAX_NEW)


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
        "routing_digest": _digest_routing(report),
        "outputs_digest": _digest_outputs(report),
    }


class _FleetBench:
    """The bench's standard fleet: one seeded model every replica serves,
    the reference service time, and the sizing and autoscaler tuning every
    run shares."""

    def __init__(self, quick: bool, seed: int):
        from repro.models import GPT2Model

        self.seed = seed
        self.model_config = _fleet_model_config(quick)
        self.model = GPT2Model(self.model_config, rng=np.random.default_rng(seed))
        self.service_s = request_seconds(self.model_config, REFERENCE_PROMPT_LEN, _MAX_NEW)

    def _sequencer(self):
        return make_tier_sequencer(self.model, max_new_tokens=_MAX_NEW, prompt_seed=self.seed)

    def run(self, router, requests, autoscaled: bool) -> FleetReport:
        # thresholds in the trace's rescaled time base: the control loop ticks
        # once per mean service time, cooldowns span a few service times
        service_s = self.service_s
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
            fleet = Fleet(self._sequencer, router, autoscaler=autoscaler, config=_FLEET_CONFIG)
            return fleet.run(requests)


def run_fleet_sweep(quick: bool = False, seed: int = 0, trace_ref: str = "diurnal") -> dict:
    """Run the policy sweep plus the autoscale demo; returns one mode's
    payload (deterministic for a given ``quick``/``seed``/``trace_ref``)."""
    bench = _FleetBench(quick, seed)
    service_s = bench.service_s
    trace = build_trace(trace_ref, seed=seed, quick=quick)
    scaled = trace.rescaled(service_s)

    sweep = [
        _point(policy, bench.run(make_router(policy, seed=seed), scaled.requests, autoscaled=True))
        for policy in ROUTER_POLICIES
    ]

    # -- acceptance demo: fixed single replica vs autoscaled, diurnal trace ----
    demo_trace = (
        scaled
        if trace.name == "diurnal"
        else build_trace("diurnal", seed=seed, quick=quick).rescaled(service_s)
    )
    slo_s = 8.0 * service_s  # the diurnal trace's SLO budget, rescaled
    worst_service_s = request_seconds(bench.model_config, 12, _MAX_NEW)  # prompts are 4..12
    bound_s = slo_s + _NUM_SLOTS * worst_service_s

    fixed, auto = (
        bench.run(make_router("least-loaded"), demo_trace.requests, autoscaled)
        for autoscaled in (False, True)
    )
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
            "model": bench.model_config.name,
            "num_layers": bench.model_config.num_layers,
            "trace": scaled.label,
            "trace_digest": scaled.digest(),
            "num_requests": len(scaled),
            "num_slots": _NUM_SLOTS,
            "max_new_tokens": _MAX_NEW,
            "mean_service_seconds": service_s,
            "slo_seconds": slo_s,
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
    """One fleet run under the bench's standard setup (model, sizing,
    autoscaler tuning); returns ``(report, trace, service_s)``.  This is the
    entry the ablation figure uses to plot a control timeline."""
    bench = _FleetBench(quick, seed)
    trace = build_trace(trace_ref, seed=seed, quick=quick).rescaled(bench.service_s)
    report = bench.run(make_router(policy, seed=seed), trace.requests, autoscaled)
    return report, trace, bench.service_s


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
