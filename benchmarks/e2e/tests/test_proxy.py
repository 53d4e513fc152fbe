"""The timing proxy must be invisible to the program it measures."""

import numpy as np
import pytest

from lane_decode import gpt_config
from proxy import Spans, TimedProposer, TimingSequencer


@pytest.fixture(scope="module")
def model():
    from repro.models.gpt2 import GPT2Model

    return GPT2Model(gpt_config("canary"), rng=np.random.default_rng(0))


def _serve(model, wrap, speculative=False, prefix_cache=False):
    from repro import engine as E
    from repro.serving.arrivals import Request

    rng = np.random.default_rng(5)
    shared = rng.integers(0, 2000, size=12)
    prompts = {i: np.concatenate([shared, rng.integers(0, 2000, size=4 + i)]) for i in range(5)}
    sequencer = (
        E.SpeculativeSequencer(model, TimedProposer(E.NgramProposer()) if wrap else E.NgramProposer(),
                               max_new_tokens=6)
        if speculative else E.GPT2CachedSequencer(model, max_new_tokens=6)
    )
    if wrap:
        sequencer = TimingSequencer(sequencer, decode_kind="verify" if speculative else "decode")
    engine = E.InferenceEngine(
        sequencer, E.EngineConfig(num_slots=2, prefix_cache=prefix_cache), clock=E.WallClock()
    )
    requests = [Request(arrival=0.0, n=len(p), id=i) for i, p in prompts.items()]
    return engine.run(requests, prompts=prompts), sequencer, prompts


@pytest.mark.parametrize("speculative", [False, True])
@pytest.mark.parametrize("prefix_cache", [False, True])
def test_outputs_are_equal_with_and_without_the_proxy(model, speculative, prefix_cache):
    plain, _, _ = _serve(model, wrap=False, speculative=speculative, prefix_cache=prefix_cache)
    timed, _, _ = _serve(model, wrap=True, speculative=speculative, prefix_cache=prefix_cache)
    assert plain.steps_total == timed.steps_total
    for request_id, output in plain.outputs().items():
        assert np.array_equal(output, timed.outputs()[request_id])
    if prefix_cache:
        assert plain.prefix_cache == timed.prefix_cache


@pytest.mark.parametrize("speculative", [False, True])
def test_every_output_token_gets_a_timestamp(model, speculative):
    report, proxy, prompts = _serve(model, wrap=True, speculative=speculative)
    logs, steps = proxy.drain()
    assert sum(len(log.steps) for log in logs.values()) == len(steps) == report.steps_total
    for request_id, output in report.outputs().items():
        times = logs[request_id].token_times()
        assert len(times) == len(output) - len(prompts[request_id])
        assert times == sorted(times)
        assert logs[request_id].steps[0].kind == "prefill"
    assert proxy.drain() == ({}, [])
    assert proxy.kv_rows_peak > 0


def test_harness_spans_share_the_request_id_and_have_parents(model):
    from repro import engine as E
    from repro import obs
    from repro.serving.arrivals import Request

    tracer = obs.Tracer()
    spans = Spans(tracer)
    proxy = TimingSequencer(E.GPT2CachedSequencer(model, max_new_tokens=3))
    proxy.spans, proxy.request_tag = spans, "t-"
    engine = E.InferenceEngine(proxy, E.EngineConfig(num_slots=2), clock=E.WallClock())
    with obs.use_tracer(tracer):
        engine.run([Request(arrival=0.0, n=8, id=i) for i in range(3)])
    harness = [s for s in tracer.spans if s.cat == "harness" and s.name != "harness.origin"]
    ids = {s.args["span_id"] for s in harness}
    roots = [s for s in harness if s.name == "request"]
    assert len(roots) == spans.requests_recorded == 3
    for span in harness:
        if span.name == "request":
            assert span.args["parent"] is None
        else:
            assert span.args["parent"] in ids
            parent = next(s for s in harness if s.args["span_id"] == span.args["parent"])
            assert parent.args["request"] == span.args["request"]
            assert parent.start_s <= span.start_s + 1e-6 and span.end_s <= parent.end_s + 1e-6
