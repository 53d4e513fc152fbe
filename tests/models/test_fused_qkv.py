"""Fused Q/K/V projection storage of MultiHeadSelfAttention."""

import numpy as np
import pytest

from repro.models.attention import MultiHeadSelfAttention


@pytest.fixture
def mha(rng):
    return MultiHeadSelfAttention(32, 4, rng=rng)


class TestFusedProjection:
    def test_blocks_equal_separate_projections(self, mha, rng):
        x = rng.normal(size=(6, 32)).astype(np.float32)
        fused = mha.qkv_projection(x)
        width = mha.num_heads * mha.head_dim
        np.testing.assert_allclose(fused[:, :width], mha.query(x), atol=1e-6)
        np.testing.assert_allclose(fused[:, width : 2 * width], mha.key(x), atol=1e-6)
        np.testing.assert_allclose(fused[:, 2 * width :], mha.value(x), atol=1e-6)

    def test_weights_are_views_of_one_buffer(self, mha):
        assert np.shares_memory(mha.query.weight.data, mha.key.weight.data.base)
        assert np.shares_memory(mha.key.weight.data, mha.value.weight.data.base)

    def test_in_place_weight_edit_flows_through(self, mha, rng):
        """Pruning/quantisation mutate ``weight.data`` in place; the fused
        buffer is the same memory, so no refresh is needed."""
        x = rng.normal(size=(3, 32)).astype(np.float32)
        before = mha.qkv_projection(x).copy()
        mha.query.weight.data *= 2.0
        after = mha.qkv_projection(x)
        width = mha.num_heads * mha.head_dim
        bias = mha.query.bias.data
        np.testing.assert_allclose(
            after[:, :width] - bias, 2.0 * (before[:, :width] - bias), atol=1e-5
        )

    def test_rebound_weight_data_triggers_refresh(self, mha, rng):
        """Tests and ``Parameter.copy_`` rebind ``.data`` wholesale; the
        staleness memo must catch that and re-fuse."""
        x = rng.normal(size=(3, 32)).astype(np.float32)
        new_w = rng.normal(size=mha.key.weight.data.shape).astype(np.float32)
        mha.key.weight.data = new_w
        fused = mha.qkv_projection(x)
        width = mha.num_heads * mha.head_dim
        np.testing.assert_allclose(
            fused[:, width : 2 * width], x @ new_w + mha.key.bias.data, atol=1e-5
        )
        # re-fusing re-homed the parameter as a view again
        assert mha.key.weight.data.base is not None

    def test_copy_refreshes_fused_buffer(self, mha, rng):
        x = rng.normal(size=(3, 32)).astype(np.float32)
        new_w = rng.normal(size=mha.value.weight.data.shape).astype(np.float32)
        mha.value.weight.data = new_w.copy()
        fused = mha.qkv_projection(x)
        np.testing.assert_allclose(
            fused[:, 2 * mha.num_heads * mha.head_dim :],
            x @ new_w + mha.value.bias.data,
            atol=1e-5,
        )

    def test_forward_unchanged_by_fusion(self, rng):
        """The module's public forward output is a function of the logical
        Q/K/V weights only — fusion is invisible."""
        a = MultiHeadSelfAttention(32, 4, rng=np.random.default_rng(7))
        b = MultiHeadSelfAttention(32, 4, rng=np.random.default_rng(7))
        x = rng.normal(size=(5, 32)).astype(np.float32)
        np.testing.assert_array_equal(a(x), b(x))

    def test_state_dict_round_trip_preserves_outputs(self, rng):
        a = MultiHeadSelfAttention(32, 4, rng=np.random.default_rng(7))
        b = MultiHeadSelfAttention(32, 4, rng=np.random.default_rng(8))
        x = rng.normal(size=(5, 32)).astype(np.float32)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(b(x), a(x), atol=1e-6)

    def test_no_bias_configuration(self, rng):
        mha = MultiHeadSelfAttention(32, 4, rng=rng, bias=False)
        x = rng.normal(size=(4, 32)).astype(np.float32)
        fused = mha.qkv_projection(x)
        np.testing.assert_allclose(fused[:, : mha.num_heads * mha.head_dim],
                                   mha.query(x), atol=1e-6)
