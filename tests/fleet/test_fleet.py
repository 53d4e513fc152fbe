"""Fleet co-simulation tests: conservation, fidelity, determinism, scaling."""

import numpy as np
import pytest

from repro.fleet import (
    Autoscaler,
    AutoscalerConfig,
    Fleet,
    FleetConfig,
    build_tier_model,
    build_trace,
    make_router,
    make_tier_sequencer,
    request_seconds,
    standard_tiers,
)
from repro.models.config import gpt2_config
from repro.obs.metrics import MetricsRegistry, use_registry

MAX_NEW = 6
TIERS = standard_tiers()


CONFIG = gpt2_config().scaled(
    num_layers=1, hidden_size=32, num_heads=2, ffn_dim=64,
    vocab_size=128, max_positions=64, name="gpt2-fleet-test",
)


@pytest.fixture(scope="module")
def tier_models():
    return {tier.name: build_tier_model(tier, CONFIG, weight_seed=0)[0] for tier in TIERS}


def factory_for(tier_models):
    def factory(tier):
        return make_tier_sequencer(tier_models[tier.name], max_new_tokens=MAX_NEW, prompt_seed=0)

    return factory


def diurnal_trace():
    service_s = request_seconds(CONFIG, 8, MAX_NEW)
    return build_trace("diurnal", seed=0, quick=True).rescaled(service_s), service_s


def run_fleet(tier_models, policy="least-loaded", autoscaled=True, max_queue=None):
    trace, service_s = diurnal_trace()
    with use_registry(MetricsRegistry()):
        fleet = Fleet(
            TIERS,
            factory_for(tier_models),
            make_router(policy, seed=0),
            autoscaler=(
                Autoscaler(
                    AutoscalerConfig(
                        min_replicas=1, max_replicas=5, interval=service_s,
                        up_cooldown=2 * service_s, down_cooldown=6 * service_s,
                    )
                )
                if autoscaled
                else None
            ),
            config=FleetConfig(num_slots=2, max_queue=max_queue, max_new_tokens=MAX_NEW),
        )
        report = fleet.run(trace.requests)
    return report, trace


def test_no_request_vanishes_and_every_replica_reports(tier_models):
    report, trace = run_fleet(tier_models)
    assert report.total_requests == len(trace)
    assert {r.id for c in report.replica_reports for r in (x.request for x in c.completed)} | {
        s.request.id for s in report.shed
    } == {r.id for r in trace.requests}
    assert all(r.report is not None for r in report.replicas)
    assert all(r.retired_at is not None for r in report.replicas)
    assert len(report.routing) == len(trace)


def test_tier_cycle_and_scale_events(tier_models):
    report, _ = run_fleet(tier_models)
    names = [tier.name for tier in TIERS]
    for replica in report.replicas:
        assert replica.tier.name == names[replica.index % len(names)]
    assert report.peak_replicas > 1  # the diurnal peak forces a scale-up
    assert any(kind == "up" for _, kind, _ in report.scale_events)
    assert 1.0 <= report.mean_replicas <= report.peak_replicas
    util = report.tier_utilisation()
    assert set(util) <= {tier.name for tier in TIERS}
    assert all(0.0 <= v <= 1.0 for v in util.values())


def test_outputs_bit_identical_to_each_tiers_offline_decode(tier_models):
    report, _ = run_fleet(tier_models)
    assert report.completed > 0
    tier_of = {name: tier for (_, name, tier) in report.routing}
    sequencers = {
        tier.name: factory_for(tier_models)(tier) for tier in TIERS
    }
    for replica in report.replicas:
        for completed in replica.report.completed:
            reference = sequencers[replica.tier.name].offline_reference(
                completed.request
            )
            np.testing.assert_array_equal(
                completed.output, reference,
                err_msg=(
                    f"request {completed.request.id} on {replica.name} "
                    f"({replica.tier.name}) diverged from the offline decode"
                ),
            )
    assert set(tier_of.values()) <= {tier.name for tier in TIERS}


def test_int8_tier_really_serves_from_quantized_weights(tier_models):
    # the tiers share a weight seed, so any weight difference is the fake
    # quantization — the int8 tier's decodes run on genuinely perturbed
    # weights (tiny models rarely flip a greedy argmax, so compare weights,
    # not token ids)
    full = tier_models["full"].layers[0].attention.query.weight.data
    int8 = tier_models["int8"].layers[0].attention.query.weight.data
    assert not np.array_equal(full, int8)
    assert np.max(np.abs(full - int8)) < 0.01  # perturbed, not replaced


def test_fleet_run_is_deterministic(tier_models):
    a, _ = run_fleet(tier_models, policy="power-of-two")
    b, _ = run_fleet(tier_models, policy="power-of-two")
    assert a.routing == b.routing
    assert a.scale_events == b.scale_events
    assert a.timeline == b.timeline
    outputs_a, outputs_b = a.outputs(), b.outputs()
    assert outputs_a.keys() == outputs_b.keys()
    for request_id in outputs_a:
        np.testing.assert_array_equal(outputs_a[request_id], outputs_b[request_id])


def test_autoscaling_beats_a_fixed_single_replica(tier_models):
    fixed, _ = run_fleet(tier_models, autoscaled=False, max_queue=4)
    auto, _ = run_fleet(tier_models, autoscaled=True, max_queue=4)
    assert fixed.shed_rate > 0.2  # one bounded replica drowns at the diurnal peak
    assert auto.shed_rate < fixed.shed_rate / 2
    assert auto.peak_replicas > 1


def test_fleet_instance_runs_exactly_once(tier_models):
    report, trace = run_fleet(tier_models)
    del report
    with use_registry(MetricsRegistry()):
        fleet = Fleet(
            TIERS, factory_for(tier_models), make_router("round-robin"),
            config=FleetConfig(max_new_tokens=MAX_NEW),
        )
        fleet.run(trace.requests[:3])
        with pytest.raises(RuntimeError, match="exactly once"):
            fleet.run(trace.requests[:3])


def test_empty_request_stream_yields_empty_report(tier_models):
    with use_registry(MetricsRegistry()):
        fleet = Fleet(
            TIERS, factory_for(tier_models), make_router("least-loaded"),
            config=FleetConfig(max_new_tokens=MAX_NEW),
        )
        report = fleet.run([])
    assert report.total_requests == 0
    assert report.stats().count == 0
    assert report.shed_rate == 0.0
    assert len(report.replicas) == 1  # the initial replica spawned and retired
