"""Integration: the execution layers actually emit into an installed tracer."""

import numpy as np
import pytest

from repro import obs
from repro.cluster.runtime import ThreadedRuntime
from repro.cluster.spec import ClusterSpec
from repro.models import BertModel, tiny_config
from repro.systems import VoltageSystem


@pytest.fixture
def bert():
    return BertModel(tiny_config(num_layers=3), num_classes=3, rng=np.random.default_rng(11))


@pytest.fixture
def cluster4():
    return ClusterSpec.homogeneous(4, gflops=5.0, bandwidth_mbps=500)


@pytest.fixture
def token_ids(bert):
    return bert.encode_text("the quick brown fox jumps over the lazy dog " * 3)


class TestTracedVoltageRun:
    def test_one_compute_and_one_collective_phase_span_per_layer(
        self, bert, cluster4, token_ids
    ):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            VoltageSystem(bert, cluster4).run(token_ids)
        phases = tracer.filter(cat="phase")
        compute = [s for s in phases if s.name == "partition compute"]
        collectives = [
            s for s in phases if s.name in ("all-gather", "gather to terminal")
        ]
        assert len(compute) == bert.num_layers
        assert len(collectives) == bert.num_layers
        assert sorted(s.layer for s in compute) == list(range(bert.num_layers))
        assert sorted(s.layer for s in collectives) == list(range(bert.num_layers))

    def test_modeled_track_total_equals_breakdown_total(self, bert, cluster4, token_ids):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            result = VoltageSystem(bert, cluster4).run(token_ids)
        assert tracer.modeled_seconds("request") == pytest.approx(
            result.total_seconds, abs=1e-12
        )

    def test_sim_spans_carry_byte_annotations(self, bert, cluster4, token_ids):
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            VoltageSystem(bert, cluster4).run(token_ids)
        gathers = tracer.filter(cat="sim", name="all_gather")
        assert len(gathers) == bert.num_layers - 1
        n, f = len(token_ids), bert.config.hidden_size
        for span in gathers:
            assert span.nbytes == pytest.approx(n * f * 4)

    def test_untraced_run_still_exact_and_records_nothing(self, bert, cluster4, token_ids):
        result = VoltageSystem(bert, cluster4).run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)
        assert len(obs.current_tracer()) == 0  # null tracer stayed inert

    def test_traced_run_wraps_request_span_and_metrics(self, bert, cluster4, token_ids):
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        with obs.use_tracer(tracer), obs.use_registry(registry):
            result = VoltageSystem(bert, cluster4).traced_run(token_ids)
        [request] = tracer.filter(cat="system")
        assert request.name == "voltage.run"
        assert request.args["modeled_seconds"] == result.total_seconds
        snap = registry.snapshot()
        assert snap["system.requests_total{system=voltage}"]["value"] == 1.0
        assert snap["system.modeled_latency_seconds{system=voltage}"]["count"] == 1


class TestTracedThreadedRuntime:
    def test_collectives_emit_wall_spans_per_rank(self, bert, cluster4, token_ids):
        tracer = obs.Tracer()
        system = VoltageSystem(bert, cluster4)
        with obs.use_tracer(tracer):
            threaded, _ = system.execute_distributed(token_ids)
        gathers = tracer.filter(cat="runtime", name="all_gather")
        # one all_gather per layer per rank
        assert len(gathers) == bert.num_layers * 4
        assert {s.device for s in gathers} == {0, 1, 2, 3}
        assert all(s.domain == "wall" for s in gathers)
        workers = tracer.filter(cat="runtime", name="worker")
        assert len(workers) == 4
        # collectives nest under their rank's worker span
        by_id = {w.id: w for w in workers}
        assert all(s.parent_id in by_id for s in gathers)

    def test_runtime_run_records_comm_metrics(self):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            runtime = ThreadedRuntime(3)
            runtime.run(lambda ctx: ctx.all_gather(np.ones((2, 2))))
        snap = registry.snapshot()
        assert snap["runtime.runs_total"]["value"] == 1.0
        assert snap["runtime.collective_calls"]["value"] == 3.0
        assert snap["runtime.bytes_sent"]["value"] > 0
        assert snap["runtime.worker_total_bytes"]["count"] == 3
