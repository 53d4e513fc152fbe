"""The argmax-only LM head (INTERNALS §9).

``GPT2Model.head_argmax`` must return ``np.argmax(lm_head(rows), -1)`` for
every row set — the engine's bit-identity to ``generate_cached`` now rides
on it — while computing ``lm_head``'s logits only for the rows its
screen cannot certify.  The screen is one C walk of the table
(``repro.tensor.blas.screen_top2``) in its own summation order, so equality
is by proof (top-two margin against an any-order error bound) plus
fallback; these tests attack the proof's edges: exact ties, runners-up on
either side of the bound, scale, non-finite and non-float32 inputs, a
rebound table, and a process without the walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.tensor import blas

from .test_packed_rows import _child, decoder

ROW_COUNTS = (2, 3, 4, 7, 8, 9, 16, 17)


@pytest.fixture(scope="module")
def canary():
    return decoder(128, 2000)


def hidden_rows(model, count, seed=0, scale=1.0):
    """``count`` final-normed float32 rows, like the ones a pass hands the head."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, model.config.hidden_size)).astype(np.float32)
    return [np.float32(scale) * model.ln_f(row) for row in x]


def table_of(model) -> np.ndarray:
    return model.embeddings.word.weight.data


def error_bound(model, row) -> float:
    """The docstring's ``bound``, spelled independently in float64."""
    width = model.config.hidden_size
    gamma = width * 2.0**-24 / (1 - width * 2.0**-24)
    table = table_of(model).astype(np.float64)
    return 2 * gamma * np.linalg.norm(row.astype(np.float64)) * np.linalg.norm(table, axis=1).max()


def reference(model, rows) -> np.ndarray:
    return np.argmax(model.lm_head(rows), axis=-1)


def with_runner_up(model, row, gap_in_bounds: float):
    """A copy of ``model``'s table in which the row after ``row``'s argmax
    scores ``gap_in_bounds · bound`` below it: ``e_top − gap·h/‖h‖²``."""
    logits = model.lm_head([row])[0]
    top = int(np.argmax(logits))
    runner = (top + 1) % logits.size
    h = row.astype(np.float64)
    gap = gap_in_bounds * error_bound(model, row)
    table = table_of(model).copy()
    table[runner] = (table[top].astype(np.float64) - gap * h / (h @ h)).astype(np.float32)
    return table, top, runner


class TestEqualsLogitsArgmax:
    @pytest.mark.parametrize("count", ROW_COUNTS)
    def test_canary_width(self, canary, count):
        rows = hidden_rows(canary, count, seed=count)
        tokens, fallbacks = canary.head_argmax(rows)
        assert tokens.shape == (count,)
        assert np.array_equal(tokens, reference(canary, rows))
        assert fallbacks == 0  # gaussian rows against a gaussian table: wide margins

    @pytest.mark.parametrize("width,vocab", [(32, 100), (64, 777), (16, 50)])
    def test_other_widths(self, width, vocab):
        model = decoder(width, vocab, heads=2)
        for count in ROW_COUNTS:
            rows = hidden_rows(model, count, seed=count)
            tokens, _ = model.head_argmax(rows)
            assert np.array_equal(tokens, reference(model, rows))

    def test_lone_row_is_the_gemv_head(self, canary):
        (row,) = hidden_rows(canary, 1)
        registry = MetricsRegistry()
        with use_registry(registry):
            tokens, fallbacks = canary.head_argmax([row])
        assert (tokens.tolist(), fallbacks) == ([int(np.argmax(canary.lm_head([row])[0]))], 0)
        assert registry.snapshot() == {}  # nothing screened, nothing counted

    def test_gpt2_width_on_one_blas_thread(self):
        """768 × 50257, where the block rule's cutoffs were measured."""
        report = _child("""
            import json, sys
            import numpy as np
            sys.path[:0] = sys.argv[1:]
            from test_packed_rows import decoder
            model = decoder(768, 50257, heads=12, layers=1, max_positions=8)
            rng = np.random.default_rng(3)
            report = {}
            for count in (2, 3, 4, 7, 8, 9, 16, 17):
                x = rng.standard_normal((count, 768)).astype(np.float32)
                rows = [model.ln_f(row) for row in x]
                tokens, fallbacks = model.head_argmax(rows)
                equal = np.array_equal(tokens, np.argmax(model.lm_head(rows), axis=-1))
                report[count] = [bool(equal), fallbacks]
            print(json.dumps(report))
        """, threads=1, timeout=600)
        assert {count: equal for count, (equal, _) in report.items()} == {
            str(count): True for count in ROW_COUNTS
        }
        # 50257 candidates put a runner-up inside the bound now and then
        # (≈ 1.5 % of rows on served traffic); most rows must still certify
        assert sum(fallbacks for _, fallbacks in report.values()) <= 3

    def test_pass_tokens_equal_the_logits_pass(self, canary):
        """``argmax_cached_rows`` is ``logits_cached_rows`` up to the head:
        same tokens, byte-identical K/V rows."""
        from .test_packed_rows import flights_for

        specs = [(12, 5, True), (20, 1), (9, 1), (0, 4), (31, 3, True)]
        screened, logged = flights_for(canary, specs, 6), flights_for(canary, specs, 6)
        tokens, _ = canary.argmax_cached_rows(screened)
        assert np.array_equal(tokens, np.argmax(canary.logits_cached_rows(logged), axis=-1))
        for a, b in zip(screened, logged):
            for mine, theirs in zip(a[2], b[2]):
                assert mine.k.tobytes() == theirs.k.tobytes()
                assert mine.v.tobytes() == theirs.v.tobytes()


class TestAdversarial:
    @pytest.fixture
    def model(self):
        return decoder(128, 2000)  # its own: these tests rebind the table

    @pytest.mark.parametrize("shift", [+5, -5])
    def test_duplicated_table_row_is_an_exact_tie(self, model, shift):
        rows = hidden_rows(model, 4, seed=1)
        top = int(reference(model, rows)[2])
        table = table_of(model).copy()
        table[(top + shift) % len(table)] = table[top]
        model.embeddings.word.weight.data = table
        tokens, fallbacks = model.head_argmax(rows)
        assert np.array_equal(tokens, reference(model, rows))
        assert tokens[2] == min(top, (top + shift) % len(table))  # argmax's lowest index
        assert fallbacks == 1

    @pytest.mark.parametrize("count", [2, 4, 9, 20])
    def test_tie_and_runner_up_in_another_chunk_of_the_scratch(self, count):
        """The top two are tracked along the whole walk: a duplicate and a
        near runner-up far from the top row."""
        model = decoder(32, 40000, heads=2)
        vocab = model.config.vocab_size
        rows = hidden_rows(model, count, seed=9)
        tops = reference(model, rows)
        table = table_of(model).copy()
        table[(tops[0] + vocab // 2) % vocab] = table[tops[0]]
        model.embeddings.word.weight.data = table
        table, top, runner = with_runner_up(model, rows[1], 1.0)
        table[(top + vocab // 2) % vocab], table[runner] = table[runner], table_of(model)[runner]
        model.embeddings.word.weight.data = table
        tokens, fallbacks = model.head_argmax(rows)
        assert np.array_equal(tokens, reference(model, rows))
        assert tokens[0] == min(tops[0], (tops[0] + vocab // 2) % vocab)
        assert fallbacks == 2

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3])
    @pytest.mark.parametrize("gap,expected_fallbacks", [(1.0, 1), (1.9, 1), (2.5, 0), (6.0, 0)])
    def test_runner_up_inside_and_outside_the_bound(self, model, scale, gap, expected_fallbacks):
        """The margin is compared with ``2·bound`` and the bound scales with
        ``‖h‖``, so a ×1e3 / ×1e-3 row certifies exactly when the unit one does."""
        rows = hidden_rows(model, 3, seed=2, scale=scale)
        table, top, runner = with_runner_up(model, rows[1], gap)
        model.embeddings.word.weight.data = table
        exact = table.astype(np.float64) @ rows[1].astype(np.float64)
        assert (exact[top] - exact[runner] > 2 * error_bound(model, rows[1])) == (gap > 2)
        tokens, fallbacks = model.head_argmax(rows)
        assert np.array_equal(tokens, reference(model, rows))
        assert tokens[1] == top
        assert fallbacks == expected_fallbacks

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_take_the_exact_path(self, model, poison):
        rows = hidden_rows(model, 4, seed=3)
        rows[0] = rows[0].copy()
        rows[0][5] = poison
        rows[3] = rows[3] * np.float32(poison)
        tokens, fallbacks = model.head_argmax(rows)
        assert np.array_equal(tokens, reference(model, rows))
        assert fallbacks == 2  # and the finite rows were still certified

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_rows_whose_partial_sums_could_overflow_take_the_exact_path(self, model):
        """Finite inputs, but ``‖h‖·‖e‖`` past float32's range: the error
        bound assumes no overflow, so the screen is not trusted."""
        model.embeddings.word.weight.data = table_of(model) * np.float32(100)
        rows = hidden_rows(model, 3, seed=3)
        rows[1] = rows[1] * np.float32(1e37)
        assert np.all(np.isfinite(rows[1]))
        tokens, fallbacks = model.head_argmax(rows)
        assert np.array_equal(tokens, reference(model, rows))
        assert fallbacks == 1

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_poisoned_table_sends_every_row_to_the_exact_path(self, model):
        table = table_of(model).copy()
        table[17, 3] = np.nan
        model.embeddings.word.weight.data = table
        rows = hidden_rows(model, 3, seed=4)
        tokens, fallbacks = model.head_argmax(rows)
        assert np.array_equal(tokens, reference(model, rows))
        assert fallbacks == 3

    @pytest.mark.parametrize("table_dtype,row_dtype", [
        (np.float64, np.float64), (np.float64, np.float32), (np.float32, np.float64),
        (np.float16, np.float16),
    ])
    def test_other_dtypes_are_the_logits_path(self, model, table_dtype, row_dtype):
        model.embeddings.word.weight.data = table_of(model).astype(table_dtype)
        rows = [row.astype(row_dtype) for row in hidden_rows(model, 4, seed=5)]
        registry = MetricsRegistry()
        with use_registry(registry):
            tokens, fallbacks = model.head_argmax(rows)
        assert np.array_equal(tokens, reference(model, rows))
        assert fallbacks == 0 and registry.snapshot() == {}

    def test_rebound_table_rederives_its_norm(self, model):
        """With the old table's norm the bound would be 100× too wide and
        every row would fall back."""
        rows = hidden_rows(model, 4, seed=6)
        assert model.head_argmax(rows)[1] == 0
        model.embeddings.word.weight.data = table_of(model) * np.float32(0.01)
        tokens, fallbacks = model.head_argmax(rows)
        assert np.array_equal(tokens, reference(model, rows))
        assert fallbacks == 0
        # ... and 100× too narrow the other way round
        model.embeddings.word.weight.data = table_of(model) * np.float32(1e4)
        table, _, _ = with_runner_up(model, rows[0], 1.0)
        model.embeddings.word.weight.data = table
        assert model.head_argmax(rows)[1] == 1


class TestScreenWithinBound:
    """The walk itself (``blas.screen_top2``), at widths that are not a
    multiple of the vector width and vocabularies that are not a multiple
    of the tile: its ``best`` and ``second`` are screened logits, so each is
    within the bound of the ``lm_head`` logit it stands for, and of equal
    leaders it names the lowest index."""

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.sampled_from([16, 24, 32, 64, 96, 100, 768]),
        vocab=st.sampled_from([50, 777, 1111, 50257]),
        count=st.integers(1, 20),
        seed=st.integers(0, 2**16),
        exponent=st.integers(-6, 6),
    )
    def test_every_screening_logit_is_within_the_bound(self, width, vocab, count, seed, exponent):
        model, table = _property_model(width, vocab)
        if isinstance(blas._loaded(), str):
            pytest.skip(blas._loaded())
        rows = hidden_rows(model, count, seed=seed, scale=10.0**exponent)
        best, second, index = blas.screen_top2(np.stack(rows), table)
        logits = model.lm_head(rows).astype(np.float64)
        norm = np.sqrt(np.einsum("ij,ij->i", table, table, dtype=np.float64).max())
        gamma = width * 2.0**-24 / (1 - width * 2.0**-24)
        bounds = [2 * gamma * np.linalg.norm(row.astype(np.float64)) * norm for row in rows]
        for r, bound in enumerate(bounds):
            others = np.delete(logits[r], index[r])
            assert abs(best[r] - logits[r, index[r]]) <= bound
            assert abs(second[r] - (others.max() if others.size else -np.inf)) <= bound
        # the leader's table row copied to another index: an exact tie
        copy = (int(index[0]) + 1 + seed % (vocab - 1)) % vocab
        kept = table[copy].copy()
        table[copy] = table[index[0]]
        try:
            tied = blas.screen_top2(np.stack(rows), table)
        finally:
            table[copy] = kept
        assert (tied[0][0], tied[1][0], tied[2][0]) == (best[0], best[0], min(index[0], copy))


_PROPERTY_MODEL: dict = {}


def _property_model(width, vocab):
    """A one-layer decoder of that width and vocabulary, and its table —
    the last one drawn is the only one kept (the largest is 154 MB)."""
    if (width, vocab) not in _PROPERTY_MODEL:
        _PROPERTY_MODEL.clear()
        _PROPERTY_MODEL[width, vocab] = decoder(width, vocab, heads=4, layers=1, max_positions=8)
    model = _PROPERTY_MODEL[width, vocab]
    return model, table_of(model)


class TestWithoutTheWalk:
    """No kernel library, or a table the walk cannot address: the head is
    ``np.argmax(lm_head(rows))`` for every row count, every row counted as
    a fallback, and the reason reported once — never raised."""

    def test_without_a_library_every_row_is_the_logits_argmax(self, canary, monkeypatch):
        monkeypatch.setattr(blas, "_loaded", lambda: "patched away")
        registry, tracer = MetricsRegistry(), obs.Tracer()
        with use_registry(registry), obs.use_tracer(tracer):
            for count in range(2, 18):
                rows = hidden_rows(canary, count, seed=count)
                tokens, fallbacks = canary.head_argmax(rows)
                assert np.array_equal(tokens, reference(canary, rows))
                assert fallbacks == count
        rows_seen = sum(range(2, 18))
        assert {name: entry["value"] for name, entry in registry.snapshot().items()} == {
            "models.head_rows_screened_total": rows_seen,
            "models.head_argmax_fallbacks_total": rows_seen,
            "tensor.screen_top2_disabled{reason=patched away}": 1,
        }
        assert [(span.name, span.args["reason"]) for span in tracer.spans] == [
            ("tensor.screen_top2_disabled", "patched away")
        ]

    def test_a_column_strided_table_is_the_logits_argmax(self):
        model = decoder(32, 300, heads=2)
        model.embeddings.word.weight.data = np.repeat(table_of(model), 2, axis=1)[:, ::2]
        rows = hidden_rows(model, 5, seed=11)
        registry = MetricsRegistry()
        with use_registry(registry):
            tokens, fallbacks = model.head_argmax(rows)
        assert np.array_equal(tokens, reference(model, rows))
        assert fallbacks == 5
        assert "tensor.screen_top2_disabled{reason=weight rows are not contiguous}" in (
            registry.snapshot()
        )


class TestCounters:
    def test_screened_rows_and_fallbacks_are_counted_under_the_callers_labels(self):
        model = decoder(128, 2000)
        rows = hidden_rows(model, 5, seed=8)
        table, _, _ = with_runner_up(model, rows[4], 0.5)
        model.embeddings.word.weight.data = table
        registry = MetricsRegistry()
        with use_registry(registry):
            model.head_argmax(rows, labels={"replica": "r0"})
            model.head_argmax(rows[:3], labels={"replica": "r0"})
            model.head_argmax(rows[3:])
        assert {name: entry["value"] for name, entry in registry.snapshot().items()} == {
            "models.head_rows_screened_total{replica=r0}": 8,
            "models.head_argmax_fallbacks_total{replica=r0}": 1,
            "models.head_rows_screened_total": 2,
            "models.head_argmax_fallbacks_total": 1,
        }


#: The slow canaries' child: a GPT-2-width head, four final-normed rows,
#: and ``timed(sides, pairs, between)`` — each side's thread CPU time
#: (time spent descheduled does not count) over adjacent pairs, the order
#: reversed every other pair, ``between()`` run untimed before every call.
_CANARY_CHILD = """
    import json, sys, time
    import numpy as np
    sys.path[:0] = sys.argv[1:]
    from test_packed_rows import decoder
    model = decoder(768, 50257, heads=12, layers=1, max_positions=8)
    x = np.random.default_rng(0).standard_normal((4, 768)).astype(np.float32)
    rows = [model.ln_f(row) for row in x]
    model.head_argmax(rows), model.lm_head(rows)  # warm: the table's norm, the library

    def timed(sides, pairs, between=lambda: None):
        times = {side: [] for side in sides}
        for pair in range(pairs):
            for side in sorted(sides, reverse=pair % 2 == 1):
                between()
                start = time.thread_time()
                sides[side]()
                times[side].append(time.thread_time() - start)
        return times
"""


@pytest.mark.slow
def test_screened_head_beats_the_gemv_head_at_gpt2_width():
    """A build that loses the walk (no ``cc``: every row is ``lm_head``'s)
    would make the screened head *slower* than the head it replaces —
    silently, because tokens stay right either way.  B = 4, the saturated
    cohort, against four GEMVs; healthy is ≈ 1.8× (the blocked NumPy screen
    the walk replaced read 1.25–1.3×).  A neighbour's load
    must not decide it: 41 paired thread-CPU-time calls, and the speed-up is
    the median of the pairs' ratios — a burst that slows one pair moves one
    ratio, not the verdict."""
    times = _child(_CANARY_CHILD + """
    print(json.dumps(timed({
        "screened": lambda: model.head_argmax(rows),
        "gemv": lambda: np.argmax(model.lm_head(rows), axis=-1),
    }, 41)))
    """, threads=1, timeout=600)
    speedup = float(np.median(np.divide(times["gemv"], times["screened"])))
    assert speedup >= 1.2, (speedup, times)


@pytest.mark.slow
def test_screened_head_costs_near_one_gemv_on_a_cold_table():
    """The walk streams the table once for four rows, so on a cold table it
    costs little more than one row's GEMV, which streams it too (1.04–1.07×
    on the reference box; the blocked NumPy screen it replaced read
    1.43–1.47×).  A build that loses the walk's vectorised tile is noticed
    here although every token stays right.  Before every call a buffer
    larger than the last-level cache is summed, untimed, so the table comes
    from memory as it does after a pass's layers; 21 pairs, median ratio."""
    times = _child(_CANARY_CHILD + """
    import os
    cache = os.sysconf("SC_LEVEL3_CACHE_SIZE") if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names else 0
    flush = np.ones(max(256 << 20, int(1.2 * cache)) // 4, dtype=np.float32)
    print(json.dumps(timed({
        "screened": lambda: model.head_argmax(rows),
        "lone": lambda: model.lm_head(rows[:1]),
    }, 21, between=flush.sum)))
    """, threads=1, timeout=600)
    ratio = float(np.median(np.divide(times["screened"], times["lone"])))
    assert ratio <= 1.3, (ratio, times)
