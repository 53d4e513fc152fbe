"""Edge-case regression tests for ``generate`` vs ``generate_cached``.

The decode sequencers (engine + distributed) reproduce ``generate_cached``
step-for-step, so its agreement with the cache-less ``generate`` at the
boundaries the sequencers actually hit — zero/one new token, single-token
prompts, prompt lengths landing exactly on a partition boundary, and the
``max_positions`` cap — is the foundation the whole conformance chain
stands on.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.models.config import tiny_config
from repro.models.gpt2 import GPT2Model
from repro.systems.decode import decode_capacity, decode_layer_spans, generate_distributed
from repro.systems.voltage import VoltageSystem


@pytest.fixture(scope="module")
def gpt2():
    config = tiny_config(
        norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2
    )
    return GPT2Model(config, rng=np.random.default_rng(7))


def _prompt(model, length, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, model.config.vocab_size, size=length).astype(np.int64)


class TestGenerateVsCachedEdges:
    @pytest.mark.parametrize(
        "length,max_new,emitted",
        [
            (5, 0, []),
            (5, 1, [59]),
            (1, 4, [13, 13, 13, 13]),
            (4, 4, [49, 49, 49, 49]),
            (62, 8, [46, 46]),  # stops at max_positions == 64
            (64, 4, []),
        ],
    )
    def test_cached_tokens_pinned(self, gpt2, length, max_new, emitted):
        """The edge-case prompts below, pinned to what ``generate_cached``
        emitted before its single-position forward became the cohort of one
        and its LM head the blocked routine (recorded at PR 12)."""
        prompt = _prompt(gpt2, length)
        out = gpt2.generate_cached(prompt, max_new_tokens=max_new)
        np.testing.assert_array_equal(out[:length], prompt)
        assert out[length:].tolist() == emitted

    @pytest.mark.parametrize("max_new", [0, 1])
    def test_zero_and_one_new_token(self, gpt2, max_new):
        prompt = _prompt(gpt2, 5)
        np.testing.assert_array_equal(
            gpt2.generate(prompt, max_new_tokens=max_new),
            gpt2.generate_cached(prompt, max_new_tokens=max_new),
        )

    def test_prompt_length_one(self, gpt2):
        prompt = _prompt(gpt2, 1)
        np.testing.assert_array_equal(
            gpt2.generate(prompt, max_new_tokens=4),
            gpt2.generate_cached(prompt, max_new_tokens=4),
        )

    def test_prompt_at_partition_boundary(self, gpt2):
        """Prompt length exactly on a K=2 span boundary: the last prefill
        row is the final position one rank owns, and the first decode step
        appends the first position the next rank owns."""
        cluster = ClusterSpec.heterogeneous([2.0, 2.0], bandwidth_mbps=100.0)
        system = VoltageSystem(gpt2, cluster)
        max_new = 4
        # choose prompt_len so that the K=2 even split of the capacity
        # lands its boundary exactly at prompt_len
        prompt_len = 4
        capacity = decode_capacity(gpt2, prompt_len, max_new)
        boundary = decode_layer_spans(system, capacity)[0][0].stop
        assert boundary == prompt_len, "test geometry drifted"
        prompt = _prompt(gpt2, prompt_len)
        reference = gpt2.generate(prompt, max_new_tokens=max_new)
        np.testing.assert_array_equal(
            reference, gpt2.generate_cached(prompt, max_new_tokens=max_new)
        )
        ids, _ = generate_distributed(system, prompt, max_new_tokens=max_new)
        np.testing.assert_array_equal(ids, reference)

    def test_generation_stops_at_max_positions(self, gpt2):
        max_positions = gpt2.config.max_positions
        prompt = _prompt(gpt2, max_positions - 2)
        cached = gpt2.generate_cached(prompt, max_new_tokens=8)
        plain = gpt2.generate(prompt, max_new_tokens=8)
        np.testing.assert_array_equal(plain, cached)
        assert cached.shape[0] == max_positions

    def test_prompt_filling_max_positions(self, gpt2):
        """A prompt already at the cap emits nothing, cached or not."""
        prompt = _prompt(gpt2, gpt2.config.max_positions)
        cached = gpt2.generate_cached(prompt, max_new_tokens=4)
        np.testing.assert_array_equal(cached, prompt)
        np.testing.assert_array_equal(gpt2.generate(prompt, max_new_tokens=4), prompt)
