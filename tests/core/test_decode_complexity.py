"""Unit tests for the decode-phase Γ cost model (``repro.core.complexity``)
and the P=1 decode attention step (``repro.core.orders``)."""

import math

import numpy as np
import pytest

from repro.core.complexity import (
    DECODE_ATTENTION_MODES,
    EQ3,
    decode_attention_crossover_length,
    decode_combine_elements,
    decode_comm_elements,
    decode_gamma_cached,
    decode_gamma_local,
    decode_kv_gather_elements,
    decode_layer_flops,
    decode_order_switch_length,
    decode_rank_flops,
    decode_step_flops,
    ffn_flops,
    select_decode_order,
    select_order,
    theorem2_threshold,
)
from repro.core.orders import AttentionParams, attention_decode_step, attention_full


class TestDecodeGammaCached:
    def test_formula(self):
        t, f, fh = 10, 32, 8
        cost = decode_gamma_cached(t, f, fh)
        assert cost.matmul == 3 * f * fh + 2 * t * fh
        assert cost.linear == t

    def test_multi_position_prefill_step(self):
        t, f, fh, p = 10, 32, 8, 10
        cost = decode_gamma_cached(t, f, fh, new_positions=p)
        assert cost.matmul == 3 * p * f * fh + 2 * p * t * fh

    @pytest.mark.parametrize("t,p", [(0, 1), (3, 4), (5, 0)])
    def test_rejects_bad_positions(self, t, p):
        with pytest.raises(ValueError):
            decode_gamma_cached(t, 32, 8, new_positions=p)

    def test_step_flops_stack(self):
        t, layers, f, fh, heads, ffn = 9, 3, 32, 8, 4, 128
        per_layer = (
            heads * decode_gamma_cached(t, f, fh).matmul
            + (heads * fh) * f
            + ffn_flops(1, f, ffn)
        )
        assert decode_layer_flops(t, f, fh, heads, ffn) == per_layer
        assert decode_step_flops(t, layers, f, fh, heads, ffn) == layers * per_layer


class TestDecodeGatherVolume:
    def test_closed_form(self):
        t, heads, fh, k = 12, 4, 8, 3
        assert decode_kv_gather_elements(t, heads, fh, k) == pytest.approx(
            2 * (k - 1) * t * heads * fh / k
        )

    def test_single_device_is_free(self):
        assert decode_kv_gather_elements(12, 4, 8, 1) == 0.0

    def test_rejects_zero_devices(self):
        with pytest.raises(ValueError):
            decode_kv_gather_elements(12, 4, 8, 0)


class TestDecodeCombineVolume:
    def test_closed_form(self):
        heads, fh, k = 4, 8, 3
        assert decode_combine_elements(heads, fh, k) == k * heads * (fh + 2)

    def test_scales_with_new_positions(self):
        heads, fh, k, p = 4, 8, 3, 7
        assert decode_combine_elements(heads, fh, k, new_positions=p) == (
            p * decode_combine_elements(heads, fh, k)
        )

    def test_flat_in_sequence_length(self):
        heads, fh, k = 4, 8, 3
        for t in (1, 64, 4096):
            assert decode_comm_elements("distributed", t, heads, fh, k) == (
                (k - 1) * heads * (fh + 2)
            )

    def test_gathered_mode_delegates(self):
        t, heads, fh, k = 12, 4, 8, 3
        assert decode_comm_elements("gathered", t, heads, fh, k) == (
            decode_kv_gather_elements(t, heads, fh, k)
        )

    def test_crossover_length(self):
        fh, k = 8, 4
        crossover = decode_attention_crossover_length(fh, k)
        assert crossover == pytest.approx(k * (fh + 2) / (2 * fh))
        heads = 4
        # just past the crossover the combine ships strictly fewer elements
        t = int(math.ceil(crossover)) + 1
        assert decode_comm_elements("distributed", t, heads, fh, k) < (
            decode_comm_elements("gathered", t, heads, fh, k)
        )

    def test_crossover_infinite_single_device(self):
        assert decode_attention_crossover_length(8, 1) == math.inf


class TestDecodeModeCostTable:
    def test_table_covers_every_mode(self):
        for mode in DECODE_ATTENTION_MODES:
            assert decode_rank_flops(mode, 9, 32, 8, 4, 128, local_rows=5) > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            decode_rank_flops("ring", 9, 32, 8, 4, 128)

    def test_gathered_rank_flops_replicate_full_step(self):
        t, f, fh, heads, ffn = 9, 32, 8, 4, 128
        assert decode_rank_flops("gathered", t, f, fh, heads, ffn) == (
            decode_step_flops(t, 1, f, fh, heads, ffn)
        )

    def test_distributed_rank_flops_scale_with_local_rows(self):
        f, fh, heads, ffn = 32, 8, 4, 128
        per_head = decode_gamma_local(5, f, fh).matmul
        expected = heads * per_head + heads * fh * f + ffn_flops(1, f, ffn)
        assert decode_rank_flops("distributed", 20, f, fh, heads, ffn, local_rows=5) == expected
        # the score/context term is O(local_rows), not O(t)
        grow = decode_rank_flops("distributed", 20, f, fh, heads, ffn, local_rows=10)
        assert grow - expected == heads * 2 * 5 * fh

    def test_distributed_requires_local_rows(self):
        with pytest.raises(ValueError, match="local_rows"):
            decode_rank_flops("distributed", 20, 32, 8, 4, 128)


class TestDecodeOrderChoice:
    def test_cached_always_eq3(self):
        # the cache *is* the materialised K/V that Eq. (8) exists to avoid
        for t in (1, 2, 64, 4096):
            assert select_decode_order(t, 64, 16, cached=True) is EQ3

    def test_uncached_is_theorem2_at_p1(self):
        f, fh = 64, 16
        for t in (1, 2, 3, 64):
            assert select_decode_order(t, f, fh, cached=False) == select_order(
                t, 1, f, fh
            )

    def test_switch_length_solves_threshold(self):
        f, fh = 64, 16
        switch = decode_order_switch_length(f, fh)
        assert switch == pytest.approx(1.0 / (1.0 - theorem2_threshold(f, fh)))
        # just below the switch: Eq. (3); just past it: Eq. (8)
        below, above = int(math.floor(switch)), int(math.ceil(switch)) + 1
        assert not select_decode_order(below, f, fh, cached=False).is_reordered
        assert select_decode_order(above, f, fh, cached=False).is_reordered

    def test_switch_length_infinite_when_eq3_always_wins(self):
        # F_H = 1 drives the threshold to (F-1)/F ... still < 1; force >= 1
        # via a degenerate single-feature head where (F-F_H)/(F*F_H) >= 1
        f, fh = 3, 1
        if theorem2_threshold(f, fh) >= 1.0:
            assert decode_order_switch_length(f, fh) == math.inf
        else:
            assert decode_order_switch_length(f, fh) > 1.0


class TestAttentionDecodeStep:
    @pytest.fixture()
    def params(self):
        rng = np.random.default_rng(21)
        f = 16
        return AttentionParams(
            wq=rng.normal(size=(f, f)),
            wk=rng.normal(size=(f, f)),
            wv=rng.normal(size=(f, f)),
            num_heads=2,
        )

    def test_matches_last_row_of_full_attention(self, params):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(9, 16)).astype(np.float64)
        full = attention_full(x, params, causal=True)
        step = attention_decode_step(x, params)
        np.testing.assert_allclose(step, full[-1:], rtol=1e-10, atol=1e-12)

    def test_order_override_agrees(self, params):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 16)).astype(np.float64)
        auto = attention_decode_step(x, params)
        forced = attention_decode_step(x, params, order=EQ3)
        np.testing.assert_allclose(auto, forced, rtol=1e-10, atol=1e-12)
