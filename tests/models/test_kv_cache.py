"""Tests for KV-cache incremental decoding."""

import numpy as np
import pytest

from repro.models import GPT2Model, tiny_config
from repro.models.cache import (
    KVCache,
    LayerKVCache,
    layer_forward_cached,
)
from repro.models.layer import TransformerLayer
from repro.tensor import Workspace


def causal_layer(norm_style="pre", seed=9):
    cfg = tiny_config(norm_style=norm_style, is_causal=True, type_vocab_size=0)
    return TransformerLayer(cfg, rng=np.random.default_rng(seed))


@pytest.fixture
def gpt2():
    cfg = tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=3)
    return GPT2Model(cfg, rng=np.random.default_rng(10))


class TestLayerKVCache:
    def test_append_grows(self, rng):
        cache = LayerKVCache()
        k = rng.normal(size=(2, 3, 8))
        v = rng.normal(size=(2, 3, 8))
        cache.append(k, v)
        assert cache.length == 3
        cache.append(k[:, :1], v[:, :1])
        assert cache.length == 4

    def test_append_returns_full_tensors(self, rng):
        cache = LayerKVCache()
        k1, v1 = rng.normal(size=(2, 2, 8)), rng.normal(size=(2, 2, 8))
        cache.append(k1, v1)
        k2, v2 = rng.normal(size=(2, 1, 8)), rng.normal(size=(2, 1, 8))
        k_all, v_all = cache.append(k2, v2)
        np.testing.assert_array_equal(k_all[:, :2], k1)
        np.testing.assert_array_equal(k_all[:, 2:], k2)

    def test_geometry_mismatch_rejected(self, rng):
        cache = LayerKVCache()
        cache.append(rng.normal(size=(2, 2, 8)), rng.normal(size=(2, 2, 8)))
        with pytest.raises(ValueError, match="geometry"):
            cache.append(rng.normal(size=(3, 1, 8)), rng.normal(size=(3, 1, 8)))

    def test_kv_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="disagree"):
            LayerKVCache().append(rng.normal(size=(2, 2, 8)), rng.normal(size=(2, 3, 8)))

    def test_model_cache_factory(self):
        cache = KVCache.empty(5)
        assert len(cache.layers) == 5
        assert cache.length == 0


class TestCacheDtypeValidation:
    def test_mismatched_new_kv_dtypes_rejected(self, rng):
        """Regression: a float32 K with a float64 V used to be silently
        accepted and promoted on the next concatenate."""
        k = rng.normal(size=(2, 2, 8)).astype(np.float32)
        v = rng.normal(size=(2, 2, 8)).astype(np.float64)
        with pytest.raises(ValueError, match="dtypes disagree"):
            LayerKVCache().append(k, v)

    def test_append_dtype_change_rejected(self, rng):
        cache = LayerKVCache()
        k32 = rng.normal(size=(2, 2, 8)).astype(np.float32)
        cache.append(k32, k32.copy())
        k64 = rng.normal(size=(2, 1, 8))
        with pytest.raises(ValueError, match="dtype mismatch"):
            cache.append(k64, k64.copy())

    def test_cached_dtype_preserved(self, rng):
        cache = LayerKVCache()
        k = rng.normal(size=(2, 3, 8)).astype(np.float32)
        k_all, v_all = cache.append(k, k.copy())
        assert k_all.dtype == np.float32
        assert v_all.dtype == np.float32


class TestPreallocation:
    def test_capacity_hint_allocates_once(self, rng):
        cache = LayerKVCache(capacity=16)
        for _ in range(16):
            step = rng.normal(size=(2, 1, 8)).astype(np.float32)
            cache.append(step, step.copy())
        assert cache.length == 16
        assert cache.capacity == 16
        assert cache.allocations == 1

    def test_geometric_growth_is_amortised(self, rng):
        cache = LayerKVCache()
        for _ in range(64):
            step = rng.normal(size=(2, 1, 8)).astype(np.float32)
            cache.append(step, step.copy())
        assert cache.length == 64
        assert cache.allocations <= 8  # ~log2(64) reallocations, not 64

    def test_append_returns_views_of_backing_buffer(self, rng):
        cache = LayerKVCache(capacity=8)
        step = rng.normal(size=(2, 1, 8)).astype(np.float32)
        k_a, _ = cache.append(step, step.copy())
        k_b, _ = cache.append(step, step.copy())
        assert np.shares_memory(k_a, k_b)  # both view the same preallocation

    def test_append_copies_its_inputs(self, rng):
        """Mutating the caller's array after append must not corrupt the
        cache (the old implementation aliased the first append)."""
        cache = LayerKVCache()
        k = rng.normal(size=(2, 2, 8)).astype(np.float32)
        expected = k.copy()
        cache.append(k, k.copy())
        k[:] = 0.0
        np.testing.assert_array_equal(cache.k, expected)

    def test_reserve_then_append_does_not_reallocate(self, rng):
        cache = LayerKVCache()
        step = rng.normal(size=(2, 1, 8)).astype(np.float32)
        cache.append(step, step.copy())
        allocations = cache.allocations
        cache.reserve(32)
        for _ in range(31):
            cache.append(step, step.copy())
        assert cache.allocations == allocations + 1  # only reserve() allocated

    def test_growth_preserves_earlier_positions(self, rng):
        cache = LayerKVCache()
        steps = [rng.normal(size=(2, 1, 8)).astype(np.float32) for _ in range(12)]
        for step in steps:
            cache.append(step, step.copy())
        np.testing.assert_array_equal(cache.k, np.concatenate(steps, axis=1))


class TestTruncate:
    def test_truncate_rolls_back_length_keeping_buffers(self, rng):
        cache = LayerKVCache(capacity=8)
        step = rng.normal(size=(2, 1, 8)).astype(np.float32)
        for _ in range(6):
            cache.append(step, step.copy())
        allocations = cache.allocations
        cache.truncate(2)
        assert cache.length == 2
        assert cache.allocations == allocations  # no reallocation

    def test_truncate_zero_then_reappend_no_allocation(self, rng):
        """The slot-recycling contract: truncate(0) + re-fill must reuse
        the same backing buffer, byte for byte."""
        cache = LayerKVCache(capacity=4)
        step = rng.normal(size=(2, 1, 8)).astype(np.float32)
        cache.append(step, step.copy())
        cache.truncate(0)
        allocations = cache.allocations
        other = rng.normal(size=(2, 1, 8)).astype(np.float32)
        k_all, _ = cache.append(other, other.copy())
        assert cache.allocations == allocations
        np.testing.assert_array_equal(k_all, other)

    def test_truncated_positions_are_overwritten_not_resurrected(self, rng):
        cache = LayerKVCache()
        a = rng.normal(size=(2, 2, 8)).astype(np.float32)
        b = rng.normal(size=(2, 1, 8)).astype(np.float32)
        cache.append(a, a.copy())
        cache.truncate(1)
        k_all, _ = cache.append(b, b.copy())
        assert k_all.shape == (2, 2, 8)
        np.testing.assert_array_equal(k_all[:, :1], a[:, :1])
        np.testing.assert_array_equal(k_all[:, 1:], b)

    def test_truncate_validation(self, rng):
        cache = LayerKVCache()
        step = rng.normal(size=(2, 1, 8)).astype(np.float32)
        cache.append(step, step.copy())
        with pytest.raises(ValueError, match="truncate"):
            cache.truncate(-1)
        with pytest.raises(ValueError, match="truncate"):
            cache.truncate(2)  # growing back is not possible

    def test_truncate_preserves_dtype_discipline(self, rng):
        """A recycled cache must still reject the dtype it was not built
        for — truncation may not reset the pinned dtype."""
        cache = LayerKVCache(capacity=4)
        k32 = rng.normal(size=(2, 1, 8)).astype(np.float32)
        cache.append(k32, k32.copy())
        cache.truncate(0)
        k64 = rng.normal(size=(2, 1, 8))
        with pytest.raises(ValueError, match="dtype mismatch"):
            cache.append(k64, k64.copy())

    def test_model_cache_truncates_every_layer(self, rng):
        cache = KVCache.empty(3)
        step = rng.normal(size=(2, 2, 8)).astype(np.float32)
        for layer in cache.layers:
            layer.append(step, step.copy())
        cache.truncate(1)
        assert cache.length == 1
        assert all(layer.length == 1 for layer in cache.layers)


class TestLayerForwardCached:
    @pytest.mark.parametrize("norm_style", ["pre", "post"])
    def test_incremental_equals_full_forward(self, rng, norm_style):
        """Feeding the sequence in chunks through the cache must reproduce
        the plain full forward exactly."""
        layer = causal_layer(norm_style)
        x = rng.normal(size=(12, 32)).astype(np.float32)
        full = layer(x)
        cache = LayerKVCache()
        chunks = [x[0:4], x[4:5], x[5:9], x[9:12]]
        outputs = [layer_forward_cached(layer, chunk, cache) for chunk in chunks]
        np.testing.assert_allclose(np.concatenate(outputs), full, atol=1e-5)
        assert cache.length == 12

    def test_single_token_steps(self, rng):
        layer = causal_layer()
        x = rng.normal(size=(6, 32)).astype(np.float32)
        full = layer(x)
        cache = LayerKVCache()
        outputs = [layer_forward_cached(layer, x[i : i + 1], cache) for i in range(6)]
        np.testing.assert_allclose(np.concatenate(outputs), full, atol=1e-5)

    @pytest.mark.parametrize("workspace", [None, Workspace()], ids=["plain", "workspace"])
    def test_cached_step_stays_float32(self, rng, workspace):
        """Prefill and single-token steps keep hidden states and K/V float32:
        a float64 scalar in the step (``np.sqrt(head_dim)`` under NumPy's
        scalar promotion) would upcast the output and then the cache."""
        layer = causal_layer()
        x = rng.normal(size=(6, 32)).astype(np.float32)
        cache = LayerKVCache()
        for chunk in (x[0:4], x[4:5], x[5:6]):
            assert layer_forward_cached(layer, chunk, cache, workspace=workspace).dtype == np.float32
        assert cache.k.dtype == cache.v.dtype == np.float32

    def test_non_causal_layer_rejected(self, rng):
        layer = TransformerLayer(tiny_config(), rng=rng)
        with pytest.raises(ValueError, match="causal"):
            layer_forward_cached(layer, np.zeros((1, 32), dtype=np.float32), LayerKVCache())

    @pytest.mark.parametrize("norm_style", ["pre", "post"])
    def test_workspace_path_is_bit_identical(self, rng, norm_style):
        """The workspace-backed step runs the same ufunc chains as the
        allocating step, so the outputs must match bit for bit."""
        layer = causal_layer(norm_style)
        x = rng.normal(size=(9, 32)).astype(np.float32)
        plain_cache, ws_cache = LayerKVCache(), LayerKVCache(capacity=9)
        workspace = Workspace()
        for chunk in (x[0:4], x[4:5], x[5:9]):
            plain = layer_forward_cached(layer, chunk, plain_cache)
            buffered = layer_forward_cached(layer, chunk, ws_cache, workspace=workspace)
            np.testing.assert_array_equal(plain, buffered)
        np.testing.assert_array_equal(plain_cache.k, ws_cache.k)
        assert workspace.allocations > 0  # the workspace actually engaged

    def test_workspace_chunked_decode_matches_full_forward(self, rng):
        """Cached-vs-uncached equivalence *post*-preallocation: same check
        as above but through the preallocated + workspace path."""
        layer = causal_layer()
        x = rng.normal(size=(12, 32)).astype(np.float32)
        full = layer(x)
        cache = LayerKVCache(capacity=12)
        workspace = Workspace()
        outputs = [
            layer_forward_cached(layer, x[i : i + 1], cache, workspace=workspace)
            for i in range(12)
        ]
        np.testing.assert_allclose(np.concatenate(outputs), full, atol=1e-5)


class TestGenerateCached:
    def test_matches_uncached_generation(self, gpt2):
        prompt = np.array([3, 17, 42, 7], dtype=np.int64)
        uncached = gpt2.generate(prompt, max_new_tokens=6)
        cached = gpt2.generate_cached(prompt, max_new_tokens=6)
        np.testing.assert_array_equal(cached, uncached)

    def test_zero_new_tokens(self, gpt2):
        prompt = np.array([1, 2, 3], dtype=np.int64)
        out = gpt2.generate_cached(prompt, max_new_tokens=0)
        np.testing.assert_array_equal(out, prompt)

    def test_respects_max_positions(self, gpt2):
        prompt = np.arange(1, gpt2.config.max_positions - 1, dtype=np.int64)
        out = gpt2.generate_cached(prompt, max_new_tokens=10)
        assert len(out) <= gpt2.config.max_positions
        np.testing.assert_array_equal(
            out, gpt2.generate(prompt, max_new_tokens=10)
        )

    def test_several_prompts_agree(self, gpt2):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            prompt = rng.integers(0, gpt2.config.vocab_size, size=5 + seed)
            np.testing.assert_array_equal(
                gpt2.generate_cached(prompt, max_new_tokens=4),
                gpt2.generate(prompt, max_new_tokens=4),
            )
