"""Sharded decode *compute*: the rank-sharded LM head and span-partitioned
multi-row steps (``repro.systems.decode``), in both attention modes.

Both rest on BLAS-kernel facts (INTERNALS §13) these tests assert where the
suite runs: a vocab shard starting on a multiple of 64 rows is bit-equal to
the same rows of the whole-table product, and a row slice of a step's GEMMs
is bit-equal to the same rows of the all-rows step whenever
``decode_step_slices`` partitions it.  ``-m slow`` repeats the
partitioned-step sweeps under distributed attention.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from functools import partial

import numpy as np
import pytest

import repro
from repro.cluster.spec import ClusterSpec
from repro.core.partition import PartitionScheme
from repro.models.cache import KVCache, merge_kv_shards
from repro.models.config import gpt2_config, tiny_config
from repro.models.gpt2 import GPT2Model, greedy_loop
from repro.systems import decode as decode_module
from repro.systems.decode import (
    DecodeSession,
    decode_head_parts,
    decode_layer_spans,
    decode_step_slices,
    generate_distributed,
    run_decode,
)
from repro.systems.voltage import VoltageSystem

#: Even and heterogeneous span layouts, per K.
RATIOS = {
    1: [[1.0]],
    2: [[0.5, 0.5], [0.3, 0.7]],
    3: [[1 / 3] * 3, [0.5, 0.2, 0.3]],
    6: [[1 / 6] * 6, [0.3, 0.05, 0.25, 0.1, 0.1, 0.2]],
}
LAYOUTS = [ratios for k in RATIOS for ratios in RATIOS[k]]
SMALL_VOCABS = [61, 64, 1000]


def _head_model(hidden, vocab):
    config = tiny_config(
        norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=1,
        hidden_size=hidden, num_heads=4, ffn_dim=hidden, vocab_size=vocab, max_positions=8,
    )
    return GPT2Model(config, rng=np.random.default_rng(0))


def _shards_equal_whole(model, ratios, capacity=216) -> bool:
    """Concatenated per-rank ``lm_head`` shard logits vs ``row @ table.T``."""
    table = model.embeddings.word.weight.data
    parts = decode_head_parts(PartitionScheme(ratios).positions(capacity), table.shape[0])
    row = np.random.default_rng(4).standard_normal(table.shape[1]).astype(np.float32)
    shards = [model.lm_head([row], part.start, part.stop)[0] for part in parts]
    return bool(np.array_equal(np.concatenate(shards), row @ table.T))


class TestHeadParts:
    @pytest.mark.parametrize("ratios", LAYOUTS)
    @pytest.mark.parametrize("vocab", SMALL_VOCABS + [50257])
    def test_aligned_contiguous_cover(self, ratios, vocab):
        parts = decode_head_parts(PartitionScheme(ratios).positions(216), vocab)
        assert len(parts) == len(ratios)
        assert parts[0].start == 0 and parts[-1].stop == vocab
        for part, following in zip(parts, parts[1:]):
            assert part.stop == following.start
        for part in parts:
            assert part.is_empty or part.start % 64 == 0

    def test_follows_the_span_shares(self):
        parts = decode_head_parts(PartitionScheme([0.25, 0.75]).positions(200), 50257)
        assert [part.length for part in parts] == [12608, 37649]  # 786 blocks of 64 rows: 197 | 589

    def test_more_ranks_than_aligned_blocks_leaves_empty_shards(self):
        parts = decode_head_parts(PartitionScheme.even(6).positions(60), 61)
        assert sum(part.length for part in parts) == 61
        assert sum(part.is_empty for part in parts) == 5

    def test_empty_span_owns_no_rows(self):
        spans = PartitionScheme.even(4).positions(2)  # K > capacity: two empty spans
        parts = decode_head_parts(spans, 1000)
        assert [part.is_empty for part in parts] == [span.is_empty for span in spans]


class TestShardedHead:
    @pytest.mark.parametrize("ratios", LAYOUTS)
    @pytest.mark.parametrize("vocab", SMALL_VOCABS)
    def test_shard_logits_concatenate_to_the_whole_product(self, ratios, vocab):
        assert _shards_equal_whole(_head_model(32, vocab), ratios)

    def test_full_size_table_on_one_blas_thread(self):
        """GPT-2's 50257 × 768 table, every layout — in a pinned child
        process: a threaded BLAS pool splits a large GEMV wherever it likes,
        so there (as for the blocked head) a row may round differently."""
        script = textwrap.dedent("""
            import json, sys
            sys.path[:0] = sys.argv[1:]  # this directory, and wherever repro lives
            from test_decode_sharding import LAYOUTS, _head_model, _shards_equal_whole
            model = _head_model(768, 50257)
            print(json.dumps([_shards_equal_whole(model, ratios) for ratios in LAYOUTS]))
        """)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", script, os.path.dirname(__file__),
             os.path.dirname(os.path.dirname(repro.__file__))],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().splitlines()[-1]) == [True] * len(LAYOUTS)

    def test_default_range_is_the_whole_vocabulary(self):
        model = _head_model(32, 1000)
        row = np.ones(32, dtype=np.float32)
        assert np.array_equal(model.lm_head([row]), model.lm_head([row], 0, 1000))
        assert model.lm_head([row], 64, 64).shape == (1, 0)

    @pytest.mark.parametrize("ratios", LAYOUTS)
    @pytest.mark.parametrize("vocab", SMALL_VOCABS)
    def test_pair_reduce_is_argmax_even_with_duplicated_maxima(self, ratios, vocab):
        parts = decode_head_parts(PartitionScheme(ratios).positions(216), vocab)
        rng = np.random.default_rng(vocab)
        plain = rng.standard_normal(vocab).astype(np.float32)
        cases = [plain]
        for repeats in ([3, 5], [vocab - 1, 2], [0, vocab - 1], [vocab // 2, vocab // 2 + 1]):
            logits = plain.copy()
            logits[repeats] = plain.max() + 1.0  # the same maximum, twice
            cases.append(logits)
        cases.append(np.full(vocab, -np.inf, dtype=np.float32))
        for logits in cases:
            pairs = np.concatenate(
                [decode_module._best_pair(logits[p.start : p.stop], p.start) for p in parts]
            )
            assert pairs.shape == (len(parts), 2) and pairs.dtype == np.float64
            assert decode_module._first_max(pairs) == int(np.argmax(logits))


# -- span-partitioned steps -------------------------------------------------------


@pytest.fixture(scope="module")
def tiny():
    """F_H = 8: every GEMM stays in one BLAS regime, so any slice of at
    least two rows partitions."""
    config = tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2)
    return GPT2Model(config, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def wide():
    """GPT-2's layer geometry (F = 768, F_H = 64) at two layers and a small
    vocabulary: the shapes the small-matrix cutoffs were measured on."""
    config = gpt2_config().scaled(num_layers=2, vocab_size=1000, max_positions=160)
    return GPT2Model(config, rng=np.random.default_rng(5))


def _prompt(model, length, seed=9):
    return np.random.default_rng(seed).integers(0, model.config.vocab_size, size=length)


def _slices(system, prompt_len, new_tokens, offset=0):
    capacity = decode_module.decode_capacity(system.model, prompt_len, new_tokens)
    spans = decode_layer_spans(system, capacity)
    slices = decode_step_slices(system.model.config, spans, offset, prompt_len - offset)
    return None if slices is None else [part.length for part in slices]


class TestStepSlices:
    def test_single_token_and_single_row_slices_stay_whole(self, tiny):
        system = VoltageSystem(tiny, ClusterSpec.homogeneous(2))
        assert _slices(system, 1, 9) is None  # a single-token step
        assert _slices(system, 6, 4) is None  # 5 | 1: rank 1's slice is one row
        assert _slices(system, 7, 3) == [5, 2]
        assert _slices(system, 3, 7) == [3, 0]  # shorter than rank 0's span

    def test_distributed_attention_splits_exactly_like_gathered(self, tiny):
        """The split is a function of shapes alone: a partitioned step is the
        same step under either mode — priced, named and counted as a K/V
        gather — while an all-rows step keeps its mode's exchange."""
        system = VoltageSystem(tiny, ClusterSpec.homogeneous(2))
        spans = decode_layer_spans(system, 10)
        assert _slices(system, 7, 3) == [5, 2]

        def pricing(added, total, attention):
            return decode_module.decode_step_pricing(
                tiny.config, spans, added, total, attention=attention
            )

        assert pricing(7, 7, "distributed") == pricing(7, 7, "gathered")
        assert pricing(1, 8, "distributed") != pricing(1, 8, "gathered")
        result = run_decode(system, _prompt(tiny, 7), max_new_tokens=3, attention="distributed")
        layer_phases = [
            phase.name for phase in result.latency.phases
            if phase.kind == "comm" and phase.layer is not None and phase.name != "head exchange"
        ]
        assert layer_phases == ["kv shard all-gather"] + ["combine stats all-gather"] * 2
        per_step = result.meta["per_step_comm_bytes_per_device"]
        assert result.meta["kv_gather_bytes_per_device"] == per_step[0] > 0
        assert result.meta["combine_bytes_per_device"] == sum(per_step[1:])

    def test_per_layer_spans_stay_whole(self, tiny):
        spans = [PartitionScheme(r).positions(10) for r in ([0.5, 0.5], [0.3, 0.7])]
        assert decode_step_slices(tiny.config, spans, 0, 7) is None

    def test_small_matrix_cutoffs(self, wide):
        system = VoltageSystem(wide, ClusterSpec.homogeneous(2))
        # 24 | 16 of 40: rank 1's 16 × 40 score cells sit under the transposed cutoff
        assert _slices(system, 40, 8) is None
        assert _slices(system, 64, 8) == [36, 28]
        # 70 | 70 of 140: the context product is small-kernel for a slice
        # (70·64·140 multiply-adds) and blocked for the whole (140·64·140)
        assert _slices(system, 140, 0) is None


#: ``(prompt length, new tokens, offset)`` the sweeps try, partitioned or not.
TINY_CASES = [
    (length, new_tokens, offset)
    for length in range(2, 40) for new_tokens in (1, 9) for offset in (0, length // 3)
]
WIDE_CASES = [
    (length, 8, offset) for length in (50, 64, 75, 96, 112, 125, 130, 150) for offset in (0, 20)
]
WIDE_RATIOS = [[0.5, 0.5], [0.3, 0.7], [0.5, 0.2, 0.3]]


def _spy_rank_shards(monkeypatch) -> dict:
    """Each rank's per-layer KV shards of the slot it last began, by rank,
    kept by a spy on ``_rank_stepper`` (threaded ranks share this memory)."""
    shards = {}
    real = decode_module._rank_stepper

    def spy(system, ctx, capacity, attention):
        step = real(system, ctx, capacity, attention)
        shards[ctx.rank] = step.args[2]
        return step

    monkeypatch.setattr(decode_module, "_rank_stepper", spy)
    return shards


class TestPartitionedStepsMatchTheSingleDevice:
    """Every partitioned step, layer for layer, on the ranks of a threaded
    ``DecodeSession``: logits and K/V rows ``np.array_equal`` to
    ``logits_cached`` over one cache."""

    @staticmethod
    def _check(session, shards, model, prompt, new_tokens, offset):
        capacity = decode_module.decode_capacity(model, len(prompt), new_tokens)
        session.begin(0, capacity)
        cache = KVCache.empty(model.num_layers, capacity=capacity)
        if offset:
            session.forward(0, prompt[:offset], 0)
            model.logits_cached(prompt[:offset], 0, cache.layers)
        token = session.forward(0, prompt[offset:], offset)
        reference = model.logits_cached(prompt[offset:], offset, cache.layers)
        assert np.array_equal(session.logits(0), reference)
        assert token == int(np.argmax(reference))
        for layer, full in enumerate(cache.layers):
            merged_k, merged_v = merge_kv_shards([shards[rank][layer] for rank in sorted(shards)])
            assert np.array_equal(merged_k, full.k) and np.array_equal(merged_v, full.v)

    @classmethod
    def _sweep(cls, model, ratios, cases, monkeypatch, attention="gathered") -> int:
        """Check every partitioned ``(length, new tokens, offset)`` case;
        returns how many there were.  Under distributed attention a chunk's
        prefix must be partitioned too: an all-rows prefix combines stats,
        and the cache it leaves is no longer ``logits_cached``'s."""
        system = VoltageSystem(
            model, ClusterSpec.homogeneous(len(ratios)), scheme=PartitionScheme(ratios)
        )
        shards = _spy_rank_shards(monkeypatch)
        partitioned = 0
        with DecodeSession(system, attention=attention, timeout=30.0) as session:
            for length, new_tokens, offset in cases:
                if _slices(system, length, new_tokens, offset) is None:
                    continue
                if attention != "gathered" and offset:
                    if _slices(system, offset, length + new_tokens - offset) is None:
                        continue
                partitioned += 1
                cls._check(session, shards, model, _prompt(model, length), new_tokens, offset)
        return partitioned

    @pytest.mark.parametrize("ratios", [r for r in LAYOUTS if len(r) > 1])
    def test_tiny_every_length(self, tiny, ratios, monkeypatch):
        assert self._sweep(tiny, ratios, TINY_CASES, monkeypatch) > 20

    @pytest.mark.parametrize("ratios", WIDE_RATIOS)
    def test_gpt2_geometry_across_the_cutoffs(self, wide, ratios, monkeypatch):
        assert self._sweep(wide, ratios, WIDE_CASES, monkeypatch) >= 4

    @pytest.mark.slow
    @pytest.mark.parametrize("ratios", [r for r in LAYOUTS if len(r) > 1])
    def test_distributed_attention_sweep(self, tiny, wide, ratios, monkeypatch):
        """Both sweeps again under ``attention="distributed"``: a partitioned
        step runs the gathered exchange there too, so it is bit-identical."""
        assert self._sweep(tiny, ratios, TINY_CASES, monkeypatch, "distributed") > 20
        if ratios in WIDE_RATIOS:
            assert self._sweep(wide, ratios, WIDE_CASES, monkeypatch, "distributed") >= 4


#: (prompt length, new tokens): rank 1's prefill slice of a K = 2 even split is
#: 0 rows (prompt inside rank 0's span), 1 row (prompt ends one row into
#: rank 1's span: not partitioned), 2 rows and many rows.
SLICE_CASES = [(3, 7), (6, 4), (7, 3), (30, 6)]


class TestRuntimesMatchGenerateCached:
    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    @pytest.mark.parametrize("prompt_len,new_tokens", SLICE_CASES)
    def test_generate_distributed(self, tiny, runtime, prompt_len, new_tokens):
        system = VoltageSystem(tiny, ClusterSpec.homogeneous(2))
        prompt = _prompt(tiny, prompt_len)
        reference = tiny.generate_cached(prompt, max_new_tokens=new_tokens)
        ids, _ = generate_distributed(
            system, prompt, max_new_tokens=new_tokens, runtime=runtime
        )
        np.testing.assert_array_equal(ids, reference)
        np.testing.assert_array_equal(
            run_decode(system, prompt, max_new_tokens=new_tokens).output, reference
        )

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_generate_distributed_gpt2_geometry(self, wide, runtime):
        system = VoltageSystem(wide, ClusterSpec.heterogeneous([3.0, 2.0]))
        prompt = _prompt(wide, 96)
        assert _slices(system, 96, 4) is not None
        reference = wide.generate_cached(prompt, max_new_tokens=4)
        ids, _ = generate_distributed(system, prompt, max_new_tokens=4, runtime=runtime)
        np.testing.assert_array_equal(ids, reference)

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    @pytest.mark.parametrize("prompt_len,new_tokens", SLICE_CASES)
    def test_session_chunked_forward_and_rebegin(self, tiny, runtime, prompt_len, new_tokens):
        """A prefix chunk, the rest of the prompt at a non-zero offset, then
        token steps — abandoned half way and re-begun on the same slot (the
        preemption restart) — emit ``generate_cached``'s tokens."""
        system = VoltageSystem(tiny, ClusterSpec.homogeneous(2))
        prompt = [int(token) for token in _prompt(tiny, prompt_len)]
        reference = tiny.generate_cached(np.asarray(prompt), max_new_tokens=new_tokens)
        capacity = prompt_len + new_tokens
        cut = prompt_len // 3

        def decode(session, steps):
            session.begin(0, capacity)
            ids = list(prompt)
            if cut:
                session.forward(0, ids[:cut], 0)
            ids.append(session.forward(0, ids[cut:], cut))
            for _ in range(steps - 1):
                ids.append(session.forward(0, [ids[-1]], len(ids) - 1))
            return ids

        with DecodeSession(system, runtime=runtime, timeout=30.0) as session:
            decode(session, new_tokens // 2)
            assert decode(session, new_tokens) == list(reference)
            session.release(0)

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    @pytest.mark.parametrize("prompt_len,new_tokens", SLICE_CASES)
    def test_session_logits_are_the_single_devices(self, tiny, runtime, prompt_len, new_tokens):
        """``DecodeSession.logits`` after a greedy decode at K = 3: the ranks'
        vocab shards, concatenated, are ``np.array_equal`` to
        ``logits_cached``'s at the step that produced the last token."""
        system = VoltageSystem(tiny, ClusterSpec.heterogeneous([2.0, 1.0, 1.0]))
        prompt = [int(token) for token in _prompt(tiny, prompt_len)]
        reference = tiny.generate_cached(np.asarray(prompt), max_new_tokens=new_tokens)
        with DecodeSession(system, runtime=runtime, timeout=30.0) as session:
            session.begin(0, len(reference))
            ids = greedy_loop(
                partial(session.forward, 0), list(prompt), new_tokens, tiny.config.max_positions
            )
            logits = session.logits(0)
        assert ids == list(reference)
        cache = KVCache.empty(tiny.num_layers, capacity=len(reference))
        expected = tiny.logits_cached(prompt, 0, cache.layers)
        for offset in range(len(prompt), len(reference) - 1):
            expected = tiny.logits_cached(reference[offset : offset + 1], offset, cache.layers)
        assert logits.shape == (tiny.config.vocab_size,)
        assert np.array_equal(logits, expected)
        assert np.argmax(logits) == reference[-1]

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_distributed_prefill_is_the_single_devices(self, wide, runtime, monkeypatch):
        """A partitioned prefill under distributed attention: every rank's
        K/V shard rows after it, and the first token's logits, are
        ``np.array_equal`` to ``generate_cached``'s cache rows and
        ``logits_cached``.  The ranks report through a queue made before
        the fork."""
        system = VoltageSystem(wide, ClusterSpec.homogeneous(2))
        prompt = _prompt(wide, 96)
        capacity = decode_module.decode_capacity(wide, 96, 4)
        assert _slices(system, 96, 4) == [50, 46]
        reports = multiprocessing.Queue()
        real = decode_module._rank_stepper

        def spy(system, ctx, capacity, attention):
            step = real(system, ctx, capacity, attention)

            def reporting(new_ids, offset):
                token, logits = step(new_ids, offset)
                reports.put((ctx.rank, [(s.k.copy(), s.v.copy()) for s in step.args[2]], logits))
                return token, logits

            return reporting

        monkeypatch.setattr(decode_module, "_rank_stepper", spy)
        with DecodeSession(system, runtime=runtime, attention="distributed", timeout=60.0) as session:
            session.begin(0, capacity)
            token = session.forward(0, [int(t) for t in prompt], 0)
            ranks = sorted((reports.get(timeout=60) for _ in range(2)), key=lambda r: r[0])
        cache = KVCache.empty(wide.num_layers, capacity=capacity)
        reference = wide.logits_cached(prompt, 0, cache.layers)
        assert token == int(np.argmax(reference))
        spans = decode_layer_spans(system, capacity)
        for rank, shard_rows, logits in ranks:
            for parts, full, (k, v) in zip(spans, cache.layers, shard_rows):
                rows = slice(parts[rank].start, min(parts[rank].stop, len(prompt)))
                assert np.array_equal(k, full.k[:, rows]) and np.array_equal(v, full.v[:, rows])
            head = decode_head_parts(spans[-1], wide.config.vocab_size)[rank]
            assert np.array_equal(logits, reference[head.start : head.stop])

    def test_each_rank_runs_only_its_slice(self, tiny, monkeypatch):
        """A spy on ``layer_steps``: in a threaded distributed-attention
        session each rank's layers get only its slice of a partitioned
        prefill (5 | 2 of 7), then the one new row of each later token's
        step."""
        calls = []
        real = decode_module.layer_steps

        def spy(layer, x, attend):
            calls.append((threading.current_thread().name, len(x)))
            return real(layer, x, attend)

        monkeypatch.setattr(decode_module, "layer_steps", spy)
        system = VoltageSystem(tiny, ClusterSpec.homogeneous(2))
        assert _slices(system, 7, 3) == [5, 2]
        generate_distributed(system, _prompt(tiny, 7), max_new_tokens=3, attention="distributed")
        layers = tiny.num_layers
        for rank, rows in enumerate([5, 2]):
            mine = [count for name, count in calls if name == f"worker-{rank}"]
            assert mine == [rows] * layers + [1] * (2 * layers)

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_distributed_attention_close_and_rank_identical(self, wide, runtime):
        """A prompt that partitions: distributed attention's prefill is the
        gathered one, its token steps combine stats and stay inside the
        closeness regime, and the ranks agree bit for bit (asserted inside
        ``generate_distributed``)."""
        from repro.verify.tolerances import decode_logits_close

        system = VoltageSystem(wide, ClusterSpec.homogeneous(2))
        prompt = _prompt(wide, 96)
        assert _slices(system, 96, 4) is not None
        ids, _ = generate_distributed(
            system, prompt, max_new_tokens=4, runtime=runtime, attention="distributed"
        )
        result = run_decode(system, prompt, max_new_tokens=4, attention="distributed")
        np.testing.assert_array_equal(ids, result.output)
        np.testing.assert_array_equal(ids, wide.generate_cached(prompt, max_new_tokens=4))
        prefix = result.meta["final_logits_prefix"]
        reference = wide.forward(result.output[:prefix])
        assert decode_logits_close(result.meta["final_logits"], reference, "float32")


class TestAccounting:
    def test_head_bytes_are_their_own_exact_term(self, tiny):
        system = VoltageSystem(tiny, ClusterSpec.homogeneous(3))
        prompt = _prompt(tiny, 9)
        assert _slices(system, 9, 4) == [4, 5, 0]
        gathered = run_decode(system, prompt, max_new_tokens=4)
        steps = gathered.meta["steps"]
        row = tiny.config.hidden_size * 4
        assert gathered.meta["head_bytes_per_device"] == steps * 2 * 16 + row
        # the partitioned prefill hands its last row over in either mode
        distributed = run_decode(system, prompt, max_new_tokens=4, attention="distributed")
        assert distributed.meta["head_bytes_per_device"] == steps * 2 * 16 + row
        single = run_decode(VoltageSystem(tiny, ClusterSpec.homogeneous(1)), prompt, 4)
        assert single.meta["head_bytes_per_device"] == 0

    def test_pricing_charges_each_rank_its_rows_and_its_vocab_shard(self, tiny):
        from repro.core.complexity import decode_step_flops

        config = tiny.config
        system = VoltageSystem(tiny, ClusterSpec.homogeneous(2), scheme=PartitionScheme([0.3, 0.7]))
        spans = decode_layer_spans(system, 10)
        head = [config.hidden_size * part.length
                for part in decode_head_parts(spans[-1], config.vocab_size)]
        assert sum(head) == config.hidden_size * config.vocab_size

        def stack(rows, total):
            return decode_step_flops(
                total, config.num_layers, config.hidden_size, config.head_dim,
                config.num_heads, config.ffn_dim, new_positions=rows,
            )

        flops, layers, head_collectives = decode_module.decode_step_pricing(config, spans, 7, 7)
        assert flops == [stack(3, 7) + head[0], stack(4, 7) + head[1]]  # the 3 | 4 slices
        assert head_collectives == [[0, config.hidden_size * 4], [16, 16]]
        assert all(len(collectives) == 2 for collectives in layers)
        flops, _, head_collectives = decode_module.decode_step_pricing(config, spans, 1, 8)
        assert flops == [stack(1, 8) + head[0], stack(1, 8) + head[1]]
        assert head_collectives == [[16, 16]]


class TestHeadSpan:
    def test_one_head_span_per_step_per_rank_only_when_traced(self, tiny):
        from repro.obs import Tracer, use_tracer

        system = VoltageSystem(tiny, ClusterSpec.homogeneous(2))
        prompt = _prompt(tiny, 7)
        tracer = Tracer()
        with use_tracer(tracer):
            ids, _ = generate_distributed(system, prompt, max_new_tokens=3)
        np.testing.assert_array_equal(ids, tiny.generate_cached(prompt, max_new_tokens=3))
        spans = tracer.filter(name="decode.head")
        steps = run_decode(system, prompt, max_new_tokens=3).meta["steps"]
        assert len(spans) == 2 * steps
        vocab = tiny.config.vocab_size
        for rank in (0, 1):
            mine = [span for span in spans if span.track == f"rank {rank}"]
            assert len(mine) == steps and all(span.args["pair_bytes"] == 16 for span in mine)
        assert sum(span.args["vocab_rows"] for span in spans) == steps * vocab
