"""Fleet co-simulation tests: conservation, fidelity, determinism, scaling."""

import numpy as np
import pytest

from repro.fleet import (
    Autoscaler,
    AutoscalerConfig,
    Fleet,
    FleetConfig,
    ROUTER_POLICIES,
    build_trace,
    make_router,
    make_tier_sequencer,
    request_seconds,
)
from repro.models import GPT2Model
from repro.models.config import gpt2_config
from repro.obs.metrics import MetricsRegistry, use_registry

MAX_NEW = 6


CONFIG = gpt2_config().scaled(
    num_layers=1, hidden_size=32, num_heads=2, ffn_dim=64,
    vocab_size=128, max_positions=64, name="gpt2-fleet-test",
)


@pytest.fixture(scope="module")
def model():
    return GPT2Model(CONFIG, rng=np.random.default_rng(0))


def factory_for(model):
    def factory():
        return make_tier_sequencer(model, max_new_tokens=MAX_NEW, prompt_seed=0)

    return factory


def diurnal_trace():
    service_s = request_seconds(CONFIG, 8, MAX_NEW)
    return build_trace("diurnal", seed=0, quick=True).rescaled(service_s), service_s


def run_fleet(model, policy="least-loaded", autoscaled=True, max_queue=None):
    trace, service_s = diurnal_trace()
    with use_registry(MetricsRegistry()):
        fleet = Fleet(
            factory_for(model),
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


def test_no_request_vanishes_and_every_replica_reports(model):
    report, trace = run_fleet(model)
    assert report.total_requests == len(trace)
    assert {r.id for c in report.replica_reports for r in (x.request for x in c.completed)} | {
        s.request.id for s in report.shed
    } == {r.id for r in trace.requests}
    assert all(r.report is not None for r in report.replicas)
    assert all(r.retired_at is not None for r in report.replicas)
    assert len(report.routing) == len(trace)


def test_scale_events(model):
    report, _ = run_fleet(model)
    assert [replica.index for replica in report.replicas] == list(range(len(report.replicas)))
    assert report.peak_replicas > 1  # the diurnal peak forces a scale-up
    assert any(kind == "up" for _, kind, _ in report.scale_events)
    assert 1.0 <= report.mean_replicas <= report.peak_replicas


@pytest.mark.parametrize("policy", ROUTER_POLICIES)
def test_outputs_bit_identical_to_the_offline_decode(model, policy):
    report, _ = run_fleet(model, policy=policy)
    assert report.completed > 0
    reference = factory_for(model)()
    for replica in report.replicas:
        for completed in replica.report.completed:
            np.testing.assert_array_equal(
                completed.output, reference.offline_reference(completed.request),
                err_msg=(
                    f"request {completed.request.id} on {replica.name} "
                    f"({policy}) diverged from the offline decode"
                ),
            )


def test_fleet_run_is_deterministic(model):
    a, _ = run_fleet(model, policy="power-of-two")
    b, _ = run_fleet(model, policy="power-of-two")
    assert a.routing == b.routing
    assert a.scale_events == b.scale_events
    assert a.timeline == b.timeline
    outputs_a, outputs_b = a.outputs(), b.outputs()
    assert outputs_a.keys() == outputs_b.keys()
    for request_id in outputs_a:
        np.testing.assert_array_equal(outputs_a[request_id], outputs_b[request_id])


def test_autoscaling_beats_a_fixed_single_replica(model):
    fixed, _ = run_fleet(model, autoscaled=False, max_queue=4)
    auto, _ = run_fleet(model, autoscaled=True, max_queue=4)
    assert fixed.shed_rate > 0.2  # one bounded replica drowns at the diurnal peak
    assert auto.shed_rate < fixed.shed_rate / 2
    assert auto.peak_replicas > 1


def test_fleet_instance_runs_exactly_once(model):
    report, trace = run_fleet(model)
    del report
    with use_registry(MetricsRegistry()):
        fleet = Fleet(
            factory_for(model), make_router("round-robin"),
            config=FleetConfig(max_new_tokens=MAX_NEW),
        )
        fleet.run(trace.requests[:3])
        with pytest.raises(RuntimeError, match="exactly once"):
            fleet.run(trace.requests[:3])


def test_empty_request_stream_yields_empty_report(model):
    with use_registry(MetricsRegistry()):
        fleet = Fleet(
            factory_for(model), make_router("least-loaded"),
            config=FleetConfig(max_new_tokens=MAX_NEW),
        )
        report = fleet.run([])
    assert report.total_requests == 0
    assert report.stats().count == 0
    assert report.shed_rate == 0.0
    assert len(report.replicas) == 1  # the initial replica spawned and retired
