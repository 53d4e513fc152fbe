"""Kernel bit-identity of cohort decode (INTERNALS §9/§10).

``logits_cached_rows`` runs ``B`` single-position forwards in lockstep, one
weight matrix at a time, and serves them from one cache-blocked LM head.
Each row must be *exactly* the forward it would run alone — same logits,
same KV rows — because the engine's bit-identity to ``generate_cached``
now rides on it for every decode step.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.models.cache import KVCache, lockstep, run_steps
from repro.models.config import tiny_config
from repro.models.gpt2 import GPT2Model
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.tensor import blas
from repro.tensor.workspace import Workspace


@pytest.fixture(scope="module")
def gpt2():
    config = tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2)
    return GPT2Model(config, rng=np.random.default_rng(7))


def _prefilled(model, lengths, seed):
    """One (cache, workspace) per requested cache length, prefilled from a
    seeded prompt — call twice with one seed for two identical sets."""
    rng = np.random.default_rng(seed)
    slots = []
    for length in lengths:
        cache = KVCache.empty(model.num_layers, capacity=model.config.max_positions)
        workspace = Workspace()
        prompt = rng.integers(0, model.config.vocab_size, size=length)
        model.logits_cached(prompt, 0, cache.layers, workspace=workspace)
        slots.append((cache, workspace))
    return slots


def _ragged(batch, capacity):
    """Cache lengths mixing the edges: one row, one row below capacity."""
    return [1, capacity - 1, 5, 17, 9, 30, 2][:batch]


class TestCohortRows:
    @pytest.mark.parametrize("batch", [2, 3, 4, 7])
    @pytest.mark.parametrize("layout", ["ragged", "equal"])
    def test_rows_equal_lone_forwards_without_a_blas_binding(
        self, gpt2, batch, layout, monkeypatch
    ):
        """The rows sharing a matrix fall back to per-row ``np.matmul``."""
        monkeypatch.setattr(blas, "_loaded", lambda: "patched away")
        self.test_rows_equal_lone_forwards_and_kv_rows(gpt2, batch, layout)

    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("layout", ["ragged", "equal"])
    def test_rows_equal_lone_forwards_and_kv_rows(self, gpt2, batch, layout):
        capacity = gpt2.config.max_positions
        lengths = _ragged(batch, capacity) if layout == "ragged" else [6] * batch
        together, alone = _prefilled(gpt2, lengths, seed=3), _prefilled(gpt2, lengths, seed=3)
        tokens = list(range(10, 10 + batch))
        live = list(range(batch))  # a row at capacity drops out of later rounds
        for round_index in range(3):
            live = [i for i in live if lengths[i] + round_index < capacity]
            rows = gpt2.logits_cached_rows([
                ([tokens[i]], lengths[i] + round_index, together[i][0].layers, together[i][1])
                for i in live
            ])
            assert rows.shape == (len(live), gpt2.config.vocab_size)
            for row, i in zip(rows, live):
                lone = gpt2.logits_cached(
                    [tokens[i]], lengths[i] + round_index, alone[i][0].layers,
                    workspace=alone[i][1],
                )
                assert np.array_equal(row, lone), f"row {i} round {round_index}"
                tokens[i] = int(np.argmax(row))
        for (cohort_cache, _), (lone_cache, _) in zip(together, alone):
            assert cohort_cache.length == lone_cache.length
            for cohort_layer, lone_layer in zip(cohort_cache.layers, lone_cache.layers):
                assert cohort_layer.k.tobytes() == lone_layer.k.tobytes()
                assert cohort_layer.v.tobytes() == lone_layer.v.tobytes()

    def test_rows_may_mix_prefills_and_single_positions(self, gpt2):
        """A row is any cached forward; its ``t`` is its own."""
        (cache, workspace), = _prefilled(gpt2, [4], seed=5)
        (lone_cache, lone_ws), = _prefilled(gpt2, [4], seed=5)
        fresh, lone_fresh = KVCache.empty(gpt2.num_layers), KVCache.empty(gpt2.num_layers)
        prompt = [3, 1, 4, 1, 5]
        rows = gpt2.logits_cached_rows([
            ([9], 4, cache.layers, workspace), (prompt, 0, fresh.layers, None),
        ])
        assert np.array_equal(rows[0], gpt2.logits_cached([9], 4, lone_cache.layers, lone_ws))
        assert np.array_equal(rows[1], gpt2.logits_cached(prompt, 0, lone_fresh.layers))

    def test_lockstep_interleaves_and_orders_results(self):
        log = []

        def steps(name, pauses):
            for index in range(pauses):
                log.append((name, index))
                assert (yield) is None  # a bare pause is answered with nothing
            return name.upper()

        assert lockstep([steps("a", 2), steps("b", 3), steps("c", 0)]) == ["A", "B", "C"]
        assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("b", 2)]
        assert run_steps(steps("d", 2)) == "D"

    def test_lockstep_serves_each_generator_its_own_product(self):
        """Requests against one matrix are answered together — single rows
        through ``rows_matmul``, a multi-row set by its own ``np.matmul`` —
        each exactly ``x @ weight + bias``."""
        rng = np.random.default_rng(0)
        weight, other = rng.standard_normal((2, 24, 40)).astype(np.float32)
        bias = rng.standard_normal(40).astype(np.float32)
        transposed = other.T

        def steps(x):
            first = yield (weight, bias, x)
            yield  # generators need not pause on products only
            second = yield (transposed, None, first)
            return first, second

        xs = [rng.standard_normal((rows, 24)).astype(np.float32) for rows in (1, 3, 1, 1)]
        registry = MetricsRegistry()
        with use_registry(registry):
            results = lockstep([steps(x) for x in xs])
        for x, (first, second) in zip(xs, results):
            assert np.array_equal(first, x @ weight + bias)
            assert np.array_equal(second, first @ transposed)
        rows = sum(
            entry["value"] for name, entry in registry.snapshot().items()
            if name.startswith("tensor.rows_matmul_rows_total")
        )
        assert rows == 6  # three single rows, two shared matrices


# -- the blocked LM head --------------------------------------------------------

#: (hidden, vocab): GPT-2's real table (block 320 rows, 81-row tail), the
#: benchmark canary's (vocab < one 2048-row block) and an exact multiple.
HEAD_SHAPES = [(768, 50257), (128, 2000), (128, 3 * 2048)]


def _head_model(hidden, vocab):
    config = tiny_config(
        norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=1,
        hidden_size=hidden, num_heads=4, ffn_dim=hidden, vocab_size=vocab, max_positions=8,
    )
    return GPT2Model(config, rng=np.random.default_rng(0))


class TestBlockedLMHead:
    @pytest.mark.parametrize("hidden,vocab", HEAD_SHAPES)
    def test_rows_are_independent_and_close_to_the_whole_product(self, hidden, vocab):
        model = _head_model(hidden, vocab)
        table = model.embeddings.word.weight.data
        rng = np.random.default_rng(1)
        rows = [rng.standard_normal(hidden).astype(np.float32) for _ in range(4)]
        together = model.lm_head(rows)
        assert together.shape == (4, vocab) and together.dtype == np.float32
        # structural, whatever the BLAS threading: a row never depends on who
        # else is in its cohort, and postprocess is the lone-row routine
        assert np.array_equal(model.lm_head(rows[1:3]), together[1:3])
        for row, logits in zip(rows, together):
            assert np.array_equal(model.lm_head([row])[0], model.postprocess(row[None]))
            np.testing.assert_allclose(logits, row @ table.T, rtol=1e-4, atol=1e-4)

    def test_bit_equal_to_the_whole_table_product_on_one_blas_thread(self):
        """Blocked cohort rows, the lone row's single block and ``row @
        table.T`` are all bit-equal — on a one-thread BLAS pool, the
        benchmark's configuration.  (A threaded pool splits a large product
        across its threads wherever it likes, so a tail row may round
        differently there.)  Checked in a pinned child process."""
        script = textwrap.dedent("""
            import json, sys
            import numpy as np
            sys.path[:0] = sys.argv[1:]  # this directory, and wherever repro lives
            from test_cohort_rows import HEAD_SHAPES, _head_model
            equal = {}
            for hidden, vocab in HEAD_SHAPES:
                model = _head_model(hidden, vocab)
                table = model.embeddings.word.weight.data
                rng = np.random.default_rng(2)
                rows = [rng.standard_normal(hidden).astype(np.float32) for _ in range(3)]
                whole = np.stack([row @ table.T for row in rows])
                lone = np.stack([model.lm_head([row])[0] for row in rows])
                equal[f"{hidden}x{vocab}"] = bool(
                    np.array_equal(model.lm_head(rows), whole) and np.array_equal(lone, whole)
                )
            print(json.dumps(equal))
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", script, os.path.dirname(__file__),
             os.path.dirname(os.path.dirname(repro.__file__))],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        equal = json.loads(done.stdout.strip().splitlines()[-1])
        assert equal == {f"{h}x{v}": True for h, v in HEAD_SHAPES}

    def test_no_weight_copy_is_kept(self):
        model = _head_model(128, 2000)
        table = model.embeddings.word.weight.data
        before = set(vars(model))
        model.lm_head([np.ones(128, dtype=np.float32)])
        assert set(vars(model)) == before
        assert model.embeddings.word.weight.data is table
