"""Serving price tests: a request's lone price, the sequencer's pass price."""

import numpy as np

from repro.fleet.tiers import SERVE_DEVICE, request_seconds
from repro.models.config import gpt2_config

CONFIG = gpt2_config().scaled(
    num_layers=1, hidden_size=32, num_heads=2, ffn_dim=64,
    vocab_size=128, max_positions=32,
)


def test_request_cost_grows_with_prompt_and_generation():
    assert request_seconds(CONFIG, 16, 8) > request_seconds(CONFIG, 4, 8)
    assert request_seconds(CONFIG, 4, 16) > request_seconds(CONFIG, 4, 8)
    # a prompt past the position budget is clipped, as prompt_for clips it
    assert request_seconds(CONFIG, 40, 8) == request_seconds(CONFIG, 32, 8)


def test_make_tier_sequencer_passes_shared_prefix_through():
    """Fleet-wide shared_prefix_tokens must reach the sequencer so every
    replica derives the same tenant-keyed prompt openings; its cost hook is
    the serving device's pass price."""
    from repro.fleet.tiers import make_tier_sequencer
    from repro.models import GPT2Model
    from repro.serving.arrivals import Request
    from repro.systems.decode import pass_seconds

    model = GPT2Model(CONFIG, rng=np.random.default_rng(0))
    seq = make_tier_sequencer(model, prompt_seed=3, shared_prefix_tokens=5)
    assert seq.shared_prefix_tokens == 5
    a = seq.prompt_for(Request(0.0, 10, id=0, tenant="t"))
    b = seq.prompt_for(Request(0.0, 12, id=1, tenant="t"))
    assert list(a[:5]) == list(b[:5])
    assert list(a[5:]) != list(b[5:])
    flights = [(4, 0, False), (1, 9, False)]
    assert seq.step_cost(flights) == pass_seconds(CONFIG, SERVE_DEVICE, flights)
    # default stays prefix-free
    plain = make_tier_sequencer(model, prompt_seed=3)
    assert plain.shared_prefix_tokens == 0
