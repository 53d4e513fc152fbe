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


class TestTracedDecodeLayers:
    """``sharded_decode_step`` emits one ``decode.layers`` span per rank per
    step: the rows that rank ran, the step's new rows and its exchange."""

    @pytest.fixture
    def gpt2(self):
        from repro.models import GPT2Model

        config = tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2)
        return GPT2Model(config, rng=np.random.default_rng(3))

    @pytest.mark.parametrize("attention,exchange", [("gathered", "kv"), ("distributed", "stats")])
    def test_one_span_per_rank_per_step_names_the_split(self, gpt2, attention, exchange):
        from repro.systems.decode import generate_distributed

        prompt = np.random.default_rng(9).integers(0, gpt2.config.vocab_size, size=7)
        system = VoltageSystem(gpt2, ClusterSpec.homogeneous(2))  # 7 rows split 5 | 2
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            generate_distributed(system, prompt, max_new_tokens=3, attention=attention)
        for rank, prefill_rows in enumerate([5, 2]):
            spans = [s for s in tracer.filter(name="decode.layers") if s.device == rank]
            assert [s.args["rows"] for s in spans] == [prefill_rows, 1, 1, 1]
            assert [s.args["added"] for s in spans] == [7, 1, 1, 1]
            # a split step gathers K/V in either mode; token steps keep the mode's exchange
            assert [s.args["exchange"] for s in spans] == ["kv"] + [exchange] * 3
            assert all(s.track == f"rank {rank}" and s.cat == "systems" for s in spans)

    def test_run_decode_spans_every_rank_only_traced(self, gpt2):
        from repro.systems.decode import run_decode

        prompt = np.random.default_rng(9).integers(0, gpt2.config.vocab_size, size=7)
        system = VoltageSystem(gpt2, ClusterSpec.homogeneous(2))
        run_decode(system, prompt, max_new_tokens=3, attention="distributed")
        assert len(obs.current_tracer()) == 0  # the null tracer stayed inert
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            run_decode(system, prompt, max_new_tokens=3, attention="distributed")
        spans = tracer.filter(name="decode.layers")
        assert sorted((s.device, s.args["rows"]) for s in spans) == sorted(
            [(0, 5), (1, 2)] + [(rank, 1) for rank in (0, 1) for _ in range(3)]
        )
