"""Kernel bit-identity of the packed pass (INTERNALS §9/§10).

``logits_cached_rows`` stacks the prefills of one pass — prompts and
prefix-cache suffixes — into one row set whose weight products are one GEMM
per matrix, runs every row of a decode or verify flight as a single row
(one GEMV-order product per matrix and its own decode-step attention), and
serves every wanted row from one blocked LM head.  A prefill must be
*exactly* the forward it would run alone, and a verify row exactly the lone
single-position step at its position — same logits, same K/V rows —
because the engine's bit-identity to ``generate_cached`` rides on it for
every step, and the prefix cache re-serves prompt K/V rows to other requests.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.models.cache import (
    SMALL_GEMM_FLOPS,
    KVCache,
    packed_flights,
    row_sets,
    same_weight_kernels,
)
from repro.models.config import tiny_config
from repro.models.gpt2 import GPT2Model
from repro.tensor.workspace import Workspace


def decoder(hidden, vocab, ffn=None, heads=4, layers=2, max_positions=256):
    config = tiny_config(
        norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=layers,
        hidden_size=hidden, num_heads=heads, ffn_dim=ffn or 4 * hidden, vocab_size=vocab,
        max_positions=max_positions,
    )
    return GPT2Model(config, rng=np.random.default_rng(7))


@pytest.fixture(scope="module")
def canary():
    """The benchmark canary's width: cutoffs at 20 (QKV), 61 (W_O) and 15
    (FFN) rows, so a handful of rows lands on either side."""
    return decoder(128, 500)


def flights_for(model, specs, seed):
    """One flight per ``(offset, t[, all_positions])`` spec: fresh caches
    holding ``offset`` seeded K/V rows (what a prefix-cache hit copies in),
    then ``t`` seeded new ids.  The same ``seed`` builds an identical second
    set."""
    rng = np.random.default_rng(seed)
    config = model.config
    flights = []
    for offset, rows, *flags in specs:
        cache = KVCache.empty(model.num_layers, capacity=offset + rows)
        for layer in cache.layers if offset else ():
            k, v = rng.standard_normal((2, config.num_heads, offset, config.head_dim), np.float32)
            layer.append(k, v)
        new_ids = rng.integers(0, config.vocab_size, size=rows)
        flights.append((new_ids, offset, cache.layers, Workspace(), *flags))
    return flights


def lone_logits(model, flight) -> np.ndarray:
    """What ``flight`` computes on its own: a prefill's lone forward, or —
    for a verify flight — one lone single-position step per new id, each at
    its own position, as ``generate_cached`` decodes."""
    new_ids, offset, caches, workspace, *flags = flight
    if not any(flags):
        return np.atleast_2d(model.logits_cached(*flight))
    return np.stack([
        model.logits_cached([token], offset + row, caches, workspace)
        for row, token in enumerate(new_ids)
    ])


def packed_equals_lone(model, specs, seed=0) -> dict:
    """Run ``specs`` as one pass and flight by flight (:func:`lone_logits`);
    what is equal."""
    together, alone = flights_for(model, specs, seed), flights_for(model, specs, seed)
    logits = model.logits_cached_rows(together)
    lone = [lone_logits(model, flight) for flight in alone]
    return {
        "shape": logits.shape == (sum(len(rows) for rows in lone), model.config.vocab_size),
        "logits": np.array_equal(logits, np.concatenate(lone)),
        "kv": all(
            a.length == b.length and a.k.tobytes() == b.k.tobytes()
            and a.v.tobytes() == b.v.tobytes()
            for packed_flight, lone_flight in zip(together, alone)
            for a, b in zip(packed_flight[2], lone_flight[2])
        ),
    }


ALL_EQUAL = {"shape": True, "logits": True, "kv": True}

#: name -> (specs, the flights the rule packs) at the canary's width.
CANARY_CASES = {
    "two 2-row members": ([(0, 2), (0, 2)], [0, 1]),
    "ragged, small-kernel side": ([(0, 5), (0, 2), (0, 7)], [0, 1, 2]),
    "equal, blocked side": ([(0, 70), (0, 70)], [0, 1]),
    "four ragged, blocked side": ([(0, 64), (0, 90), (0, 75), (0, 62)], [0, 1, 2, 3]),
    "total crosses the FFN cutoff: nobody packs": ([(0, 10), (0, 10)], []),
    "small member among blocked ones runs alone": ([(0, 70), (0, 3), (0, 65)], [0, 2]),
    "suffixes over seeded prefixes": ([(30, 4), (17, 6), (0, 5)], [0, 1, 2]),
    "blocked suffixes": ([(100, 70), (50, 80)], [0, 1]),
    "mixed with single positions": ([(20, 1), (0, 6), (33, 1), (10, 5)], [1, 3]),
    "verify rounds, a decode and a prefill": (
        [(12, 5, True), (20, 5, True), (9, 1, True), (0, 4)], [3],
    ),
    "one flight is its own set": ([(8, 6)], [0]),
}


class TestPackedRows:
    @pytest.mark.parametrize("name", CANARY_CASES)
    def test_packed_pass_equals_lone_forwards(self, canary, name):
        specs, packed = CANARY_CASES[name]
        alone = [[index] for index in range(len(specs)) if index not in packed]
        flights = [(rows, any(flags)) for _, rows, *flags in specs]
        assert row_sets(canary.config, flights) == [packed] * bool(packed) + alone
        assert packed_equals_lone(canary, specs) == ALL_EQUAL

    def test_tiny_width_is_all_small_kernels(self):
        """F = 32: every product of a 64-position model is under the cutoff."""
        model = decoder(32, 100, ffn=64, max_positions=64)
        specs = [(0, 9), (5, 2), (30, 1), (0, 20), (11, 3, True)]
        assert row_sets(model.config, [(rows, any(flags)) for _, rows, *flags in specs]) == [
            [0, 1, 3], [2], [4],
        ]
        assert packed_equals_lone(model, specs) == ALL_EQUAL

    def test_verify_argmaxes_equal_the_lone_all_positions_forward(self, canary):
        specs = [(14, 5, True), (0, 8), (25, 3, True), (40, 1)]
        together, alone = flights_for(canary, specs, 4), flights_for(canary, specs, 4)
        tokens = np.argmax(canary.logits_cached_rows(together), axis=-1)
        assert tokens.shape == (5 + 1 + 3 + 1,)
        for (start, stop), flight in zip([(0, 5), (6, 9)], (alone[0], alone[2])):
            new_ids, offset, caches, workspace, _ = flight
            lone = canary.logits_cached(new_ids, offset, caches, workspace, all_positions=True)
            assert np.array_equal(tokens[start:stop], np.argmax(lone, axis=-1))

    def test_all_positions_rows_are_lone_decode_steps(self, canary):
        """A lone verify flight is ``generate_cached``'s decode steps: every
        row's logits and K/V row are those of a single-position forward at
        its position — not the rows a prefill over the same ids writes."""
        (every,), (steps,) = flights_for(canary, [(6, 4, True)], 2), flights_for(canary, [(6, 4)], 2)
        logits = canary.logits_cached(*every)
        assert np.array_equal(logits, lone_logits(canary, (*steps, True)))
        for a, b in zip(every[2], steps[2]):
            assert a.k.tobytes() == b.k.tobytes() and a.v.tobytes() == b.v.tobytes()

    def test_flights_sharing_one_workspace(self, canary):
        shared = Workspace()
        specs = [(3, 4), (0, 6), (7, 1)]
        together = [(ids, offset, caches, shared) for ids, offset, caches, _ in
                    flights_for(canary, specs, 5)]
        alone = flights_for(canary, specs, 5)
        logits = canary.logits_cached_rows(together)
        for row, flight in zip(logits, alone):
            assert np.array_equal(row, canary.logits_cached(*flight))


class TestPackingRule:
    def test_single_rows_never_pack(self, canary):
        assert packed_flights(canary.config, [1, 1, 1]) == []
        assert packed_flights(canary.config, [1, 4, 1]) == [1]
        assert packed_flights(canary.config, []) == []

    def test_only_prefills_pack(self, canary):
        """A verify flight is a row set of its own whatever its length."""
        flights = [(5, True), (4, False), (1, True), (6, False), (2, True)]
        assert row_sets(canary.config, flights) == [[1, 3], [0], [2], [4]]
        assert row_sets(canary.config, [(3, True), (3, True)]) == [[0], [1]]

    def test_members_share_the_totals_side_of_every_cutoff(self, canary):
        config = canary.config
        f, ffn = config.hidden_size, config.ffn_dim
        cutoffs = sorted(SMALL_GEMM_FLOPS // cells for cells in (3 * f * f, f * f, f * ffn))
        assert cutoffs == [15, 20, 61]
        for rows in range(2, 80):
            for all_rows in range(rows, 160):
                same_side = all((rows <= c) == (all_rows <= c) for c in cutoffs)
                assert same_weight_kernels(config, rows, all_rows) == same_side
        assert same_weight_kernels(config, 1, 1) and not same_weight_kernels(config, 1, 2)

    def test_dropping_a_member_is_retried_with_the_smaller_total(self, canary):
        # 7 + 7 + 30 = 44 is past the FFN and QKV cutoffs, 7 is not: the 7s
        # drop out; 30 alone is a set of one
        assert packed_flights(canary.config, [7, 7, 30]) == [2]
        # 62 + 62 + 8: the 8 drops, the 62s stay on the blocked side together
        assert packed_flights(canary.config, [62, 8, 62]) == [0, 2]

    def test_gpt2_width_packs_every_multi_row_flight(self):
        from repro.models.config import gpt2_config

        config = gpt2_config()
        assert packed_flights(config, [2, 1, 200, 5, 1, 17]) == [0, 2, 3, 5]


# -- GPT-2 width, in a BLAS-pinned child process --------------------------------


def _child(script: str, threads: int, timeout: int) -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), os.path.dirname(__file__),
         os.path.dirname(os.path.dirname(repro.__file__))],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


#: Serving shapes at F = 768: a prefill wave, prefix-cache suffixes, and a
#: speculative round next to a decode and a late prefill.
GPT2_CASES = {
    "prefill wave": [(0, 17), (0, 29), (0, 22), (0, 31)],
    "suffixes": [(96, 9), (96, 24), (96, 2)],
    "verify + decode + prefill": [(20, 5, True), (31, 1, True), (26, 4, True), (0, 16), (40, 1)],
    # the saturated round: four single rows share every layer matrix
    # (``rows_matmul``'s C kernel) next to a packed set
    "decode cohort + prefills": [(31, 1), (40, 1), (12, 1), (0, 16), (7, 1), (0, 9)],
}

#: Verify flights of 2–5 rows among decodes and a prefill at F = 768: every
#: verify row must be the lone single-position step at its position.
GPT2_VERIFY_CASES = {
    "four verify lengths": [(20, 2, True), (33, 3, True), (9, 4, True), (50, 5, True)],
    "verifies, decodes, a prefill": [
        (20, 5, True), (31, 1, True), (0, 12), (47, 2, True), (40, 1, True), (64, 3, True),
    ],
    "one verify beside a prefill wave": [(0, 17), (71, 4, True), (0, 29)],
}


class TestGPT2Width:
    def test_packed_pass_bit_equal_on_one_blas_thread(self):
        """Full vocabulary: logits and K/V rows, on the benchmark's pool."""
        equal = _child("""
            import json, sys
            sys.path[:0] = sys.argv[1:]
            from test_packed_rows import GPT2_CASES, decoder, packed_equals_lone
            model = decoder(768, 50257, heads=12, max_positions=128)
            print(json.dumps({name: packed_equals_lone(model, specs)
                              for name, specs in GPT2_CASES.items()}))
        """, threads=1, timeout=600)
        assert equal == {name: ALL_EQUAL for name in GPT2_CASES}

    def test_verify_rows_are_lone_decode_steps_on_one_blas_thread(self):
        """Full vocabulary: each verify row's logits and K/V rows are those of
        a lone single-position ``logits_cached`` step at its position."""
        equal = _child("""
            import json, sys
            sys.path[:0] = sys.argv[1:]
            from test_packed_rows import GPT2_VERIFY_CASES, decoder, packed_equals_lone
            model = decoder(768, 50257, heads=12, max_positions=128)
            print(json.dumps({name: packed_equals_lone(model, specs)
                              for name, specs in GPT2_VERIFY_CASES.items()}))
        """, threads=1, timeout=600)
        assert equal == {name: ALL_EQUAL for name in GPT2_VERIFY_CASES}

    def test_layers_bit_equal_on_a_two_thread_pool(self):
        """A threaded pool may split the big head product where it likes
        (INTERNALS §9), so the vocabulary here is one head block — the lone
        row and the cohort row are then the same call, and equal logits mean
        equal pre-head hidden rows."""
        equal = _child("""
            import json, sys
            sys.path[:0] = sys.argv[1:]
            from test_packed_rows import GPT2_CASES, decoder, packed_equals_lone
            model = decoder(768, 320, heads=12, max_positions=128)
            print(json.dumps({name: packed_equals_lone(model, specs)
                              for name, specs in GPT2_CASES.items()}))
        """, threads=2, timeout=600)
        assert equal == {name: ALL_EQUAL for name in GPT2_CASES}

    @pytest.mark.slow
    def test_sweep_of_ragged_tuples_and_offsets(self):
        """Several hundred random passes — 2–5 flights, ragged lengths from
        2 rows up, offsets over seeded prefixes, single positions and verify
        rounds of up to 5 rows mixed in — each prefill equal to its lone forward
        and each verify row to the lone single-position step at its
        position, in logits and K/V.  (A seven-block vocabulary with a tail:
        the sweep is about the layer products; the full table is the fast
        test's.)"""
        failed = _child("""
            import json, sys
            import numpy as np
            sys.path[:0] = sys.argv[1:]
            from test_packed_rows import ALL_EQUAL, decoder, packed_equals_lone
            model = decoder(768, 2049, heads=12, max_positions=128)
            rng = np.random.default_rng(17)
            failed = []
            for case in range(300):
                specs = []
                for _ in range(rng.integers(2, 6)):
                    rows = int(rng.choice([1, 2, 3, 5, rng.integers(2, 40)]))
                    offset = int(rng.choice([0, rng.integers(1, 128 - rows)]))
                    specs.append((offset, rows, bool(rng.integers(2)) and rows <= 5))
                if packed_equals_lone(model, specs, seed=case) != ALL_EQUAL:
                    failed.append(specs)
            print(json.dumps(failed))
        """, threads=1, timeout=1800)
        assert failed == []
