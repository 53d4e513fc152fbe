"""GPT-2-style causal decoder with a tied language-model head."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from repro.models.base import TransformerModel
from repro.models.cache import (
    LayerKVCache,
    layer_steps_cached,
    lockstep,
    row_sets,
)
from repro.models.config import TransformerConfig, gpt2_config
from repro.models.embeddings import TextEmbeddings
from repro.models.tokenizer import SimpleTokenizer
from repro.obs.metrics import get_registry
from repro.tensor.blas import screen_top2
from repro.tensor.layers import LayerNorm
from repro.tensor.workspace import Workspace

__all__ = ["CachedForward", "GPT2Model", "greedy_loop"]

#: Embedding-table bytes one LM-head block covers: ≈ 1 MiB, small enough to
#: stay cache resident while every cohort row is multiplied against it
#: (measured flat from 128 to 512 rows at F=768; 1024 rows loses a third).
_LM_HEAD_BLOCK_BYTES = 1 << 20
#: float32 unit roundoff, and the largest ``‖h‖·‖e‖`` for which no partial
#: sum of a float32 dot product can overflow (the error bound assumes none).
_UNIT_ROUNDOFF = 2.0**-24
_NO_OVERFLOW = 1e38


def greedy_loop(step, ids: list[int], max_new_tokens: int, max_positions: int) -> list[int]:
    """Greedy decoding's control flow, spelled once: ``step(new_ids,
    offset) -> next token id`` runs one cached forward — first over the
    whole prompt ``ids``, then over each appended token — and ``ids`` grows
    in place by its token, stopping at ``max_new_tokens`` new tokens or
    ``max_positions`` ids; returns ``ids``.  Only forwards whose token is
    kept run: the last token ends the loop without another.
    :meth:`GPT2Model.generate_cached`, the decode session's clients and
    ``systems.decode.decode_step_totals`` (over lengths only) all run it."""
    new_tokens = min(max_new_tokens, max_positions - len(ids))
    if new_tokens > 0:
        ids.append(step(ids, 0))
    for _ in range(new_tokens - 1):
        ids.append(step([ids[-1]], len(ids) - 1))
    return ids


class CachedForward(NamedTuple):
    """One flight of :meth:`GPT2Model.logits_cached_rows`: a KV-cached
    forward over ``new_ids`` at ``offset`` against caller-owned per-layer
    ``caches``, wanting logits for its last new position or for all of them."""

    new_ids: Sequence[int]
    offset: int
    caches: Sequence[LayerKVCache]
    workspace: Workspace | None = None
    all_positions: bool = False


class GPT2Model(TransformerModel):
    """GPT-2: pre-LN causal transformer, final layer norm, tied LM head.

    The paper deploys GPT-2 for text classification with a 200-word input —
    a single forward pass over the prompt, which is what the distributed
    systems execute.  :meth:`generate` additionally provides greedy
    autoregressive decoding as an example-level extension.
    """

    #: ``(table array, max row norm)`` of :meth:`_table_row_norm`.
    _table_norm: tuple[np.ndarray | None, float] = (None, 0.0)

    def __init__(
        self,
        config: TransformerConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        config = config if config is not None else gpt2_config()
        if not config.is_causal or config.norm_style != "pre":
            raise ValueError("GPT2Model requires a causal, pre-LN configuration")
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(config, rng=rng)
        self.embeddings = TextEmbeddings(
            vocab_size=config.vocab_size,
            hidden_size=config.hidden_size,
            max_positions=config.max_positions,
            type_vocab_size=0,
            use_layer_norm=False,  # GPT-2 does not normalise embeddings
            rng=rng,
        )
        self.ln_f = LayerNorm(config.hidden_size, eps=config.layer_norm_eps)
        self.tokenizer = SimpleTokenizer(config.vocab_size, add_special_tokens=False)

    def preprocess(self, raw) -> np.ndarray:
        if isinstance(raw, str):
            raw = self.tokenizer.encode(raw, max_length=self.config.max_positions)
        return self.embeddings(np.asarray(raw))

    def final_norm(self, x: np.ndarray) -> np.ndarray:
        return self.ln_f(x)

    def postprocess(self, hidden: np.ndarray) -> np.ndarray:
        """Last-position hidden state → next-token logits ``(vocab,)``.

        Tied to the input embedding (GPT-2's weight tying).  Classification
        and greedy decoding both read only the final position, so the
        terminal device computes one ``F × vocab`` product rather than N.
        Use :meth:`lm_logits` for the full ``(N, vocab)`` matrix.
        """
        return self.lm_head([hidden[-1]])[0]

    def lm_head(self, rows, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Tied LM head over ``B`` final-normed hidden rows (each ``(F,)``)
        → logits ``(B, hi - lo)`` against vocab rows ``[lo, hi)`` of the
        embedding table (the whole vocabulary by default) — the one cached
        head in the repo: last positions of prefills and decodes, and every
        position of a verify round, of all the flights of a pass.  A rank of
        a sharded decode passes its own range
        (:func:`repro.systems.decode.decode_head_parts`).

        Cache-blocked, rows innermost: the range is walked once in
        contiguous row blocks of ≈ ``_LM_HEAD_BLOCK_BYTES`` and every hidden
        row is multiplied against a block while it is cache resident, so a
        cohort of ``B`` rows streams the table from memory once instead of
        ``B`` times.  A lone row has nobody to share a block with and takes
        its range as one block (the loop runs once — which also keeps ``K``
        rank threads from trading the GIL 150 times per head).  Blocks are
        views of the table — no re-laid-out copy is kept (that would double
        the model's largest tensor).

        Each output element is one GEMV dot product over ``F`` whatever the
        block; a block starts on a multiple of 64 rows (``lo`` must, for
        that) so the BLAS kernel's unrolled row groups fall where the
        whole-table product puts them, which keeps every row bit-equal to
        ``(row @ table.T)[lo:hi]`` on single-threaded BLAS (asserted by the
        tests; INTERNALS §9).
        """
        table = self.embeddings.word.weight.data
        vocab, width = table.shape
        hi = vocab if hi is None else hi
        block = (
            max(hi - lo, 1)
            if len(rows) == 1
            else max(64, _LM_HEAD_BLOCK_BYTES // (width * table.itemsize) // 64 * 64)
        )
        logits = np.empty(
            (len(rows), max(hi - lo, 0)),
            dtype=np.result_type(table.dtype, *(row.dtype for row in rows)),
        )
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            panel = table[start:stop].T
            for row, out in zip(rows, logits):
                np.matmul(row, panel, out=out[start - lo : stop - lo])
        return logits

    def head_argmax(self, rows, labels=None) -> tuple[np.ndarray, int]:
        """``(np.argmax(self.lm_head(rows), axis=-1), fallbacks)`` — the
        greedy token of each of the ``B`` final-normed hidden rows of a pass
        — without the logits leaving the head (INTERNALS §9).

        From two float32 rows up, one walk of the table in C
        (:func:`repro.tensor.blas.screen_top2`) yields each row's two
        largest *screening* logits and the leader's lowest index, so the
        table is streamed from memory once for all rows and no logit is
        kept.  Their summation order is the walk's, so they are not
        :meth:`lm_head`'s logits; but any float32 dot product over ``F``
        terms, in any order, fused or not, is within
        ``γ_F·‖h‖₂·‖e_j‖₂`` of the exact one (``γ_F = F·u / (1 − F·u)``,
        ``u = 2⁻²⁴``), hence a screening logit is within ``bound =
        2·γ_F·‖h‖₂·max_j‖e_j‖₂`` of :meth:`lm_head`'s.  A row whose screened
        top-two margin exceeds ``2·bound`` is *certified*: ``lm_head`` puts
        the same index strictly above every other, so ``np.argmax`` of its
        logits is that index.  Every other row — an exact or near tie, a
        norm product large enough for a partial sum to overflow (which
        covers every non-finite input) — is recomputed by :meth:`lm_head`
        itself; ``fallbacks`` counts them.  Without the walk (no kernel
        library, or a table it cannot address; the reason is reported once)
        every row is such a fallback.  A lone row, and any row set that is
        not float32 throughout, is ``lm_head``'s own op sequence.

        ``labels`` tag the two counters recorded here,
        ``models.head_rows_screened_total`` and
        ``models.head_argmax_fallbacks_total``.
        """
        table = self.embeddings.word.weight.data
        if len(rows) < 2 or any(a.dtype != np.float32 for a in (table, *rows)):
            return np.argmax(self.lm_head(rows), axis=-1), 0
        hidden = np.stack(rows)
        walk = screen_top2(hidden, table)
        if walk is None:
            tokens, uncertain = np.argmax(self.lm_head(rows), axis=-1), np.arange(len(rows))
        else:
            best, second, tokens = walk
            margin = best.astype(np.float64) - second
            # norms in float64 and rounded up; the last term covers products
            # that underflow (each off by less than the smallest subnormal)
            width = table.shape[1]
            scale = np.linalg.norm(hidden.astype(np.float64), axis=-1) * self._table_row_norm(table)
            gamma = width * _UNIT_ROUNDOFF / (1 - width * _UNIT_ROUNDOFF)
            bound = 2 * gamma * scale * (1 + 1e-6) + width * float(np.finfo(np.float32).tiny)
            uncertain = np.flatnonzero(~((scale < _NO_OVERFLOW) & (margin > 2 * bound)))
            if uncertain.size:
                tokens[uncertain] = np.argmax(self.lm_head([rows[i] for i in uncertain]), axis=-1)
        registry, labels = get_registry(), labels or {}
        registry.counter("models.head_rows_screened_total", **labels).inc(len(rows))
        registry.counter("models.head_argmax_fallbacks_total", **labels).inc(uncertain.size)
        return tokens, uncertain.size

    def _table_row_norm(self, table: np.ndarray) -> float:
        """``max_j ‖e_j‖₂`` over the rows of the tied table, in float64 —
        one buffered pass (no float64 copy of the table), remembered for as
        long as ``table`` is the array the embedding holds (rebinding the
        public ``weight.data``, as tests do, is seen; writing into it in
        place is not)."""
        if self._table_norm[0] is not table:
            squares = np.einsum("ij,ij->i", table, table, dtype=np.float64)
            self._table_norm = (table, float(np.sqrt(squares.max())))
        return self._table_norm[1]

    def lm_logits(self, hidden: np.ndarray) -> np.ndarray:
        """Full-sequence language-model logits ``(N, vocab)``."""
        return hidden @ self.embeddings.word.weight.data.T

    def next_token(self, token_ids: np.ndarray) -> int:
        """Greedy next-token prediction from the last position."""
        logits = self.forward(np.asarray(token_ids))
        return int(np.argmax(logits))

    def postprocess_flops(self, n: int) -> int:
        """Tied LM head on the last position: F × vocab."""
        return self.config.hidden_size * self.config.vocab_size

    def _row_steps(self, flights: Sequence[CachedForward], row_by_row: bool):
        """The KV-cached forward of one *row set* — the new rows of
        ``flights`` stacked into one ``(Σt, F)`` activation, so each weight
        matrix is one product for all of them while every flight attends
        against its own caches — as a step generator (pausing at every
        weight boundary of every layer, see
        :func:`repro.models.cache.layer_steps_cached`, which also says what
        ``row_by_row`` does); returns each flight's hidden states before the
        final norm.  A set of one flight is exactly that flight's lone
        forward."""
        lengths = [len(f.new_ids) for f in flights]
        ids = np.concatenate([np.asarray(f.new_ids, dtype=np.int64) for f in flights])
        positions = np.concatenate(
            [np.arange(f.offset, f.offset + rows) for f, rows in zip(flights, lengths)]
        )
        x = self.embeddings.word(ids) + self.embeddings.position(positions)
        for index, layer in enumerate(self.layers):
            segments = [(rows, f.caches[index], f.workspace) for f, rows in zip(flights, lengths)]
            x = yield from layer_steps_cached(layer, x, segments, row_by_row)
        bounds = [0, *accumulate(lengths)]
        return [x[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def logits_cached(
        self,
        new_ids,
        offset: int,
        caches,
        workspace=None,
        all_positions: bool = False,
    ) -> np.ndarray:
        """One KV-cached forward over ``new_ids`` at ``offset``, returning
        LM-head logits — :meth:`generate_cached`'s inner step, against
        caller-owned per-layer caches (``caches`` is a sequence of
        :class:`~repro.models.cache.LayerKVCache`, e.g. an engine slot's):
        the pass of one flight of :meth:`logits_cached_rows`.

        By default the ``t`` new ids are one prefill and only the last
        position's logits come back (``(vocab,)``, the greedy-decode head).
        ``all_positions=True`` makes the flight a *verify*: every new id is
        the single-position step :meth:`generate_cached` would run at its
        position, and the full ``(t, vocab)`` matrix comes back — the
        target's logits at every drafted position of speculative decoding,
        from one pass.
        """
        logits = self.logits_cached_rows([(new_ids, offset, caches, workspace, all_positions)])
        return logits if all_positions else logits[0]

    def logits_cached_rows(self, rows) -> np.ndarray:
        """The logits of independent cached forwards — flights,
        ``rows[i] = (new_ids, offset, caches, workspace[, all_positions])``
        (:class:`CachedForward`) — from one pass over the weights: the
        wanted positions' logits ``(Σ wanted, vocab)``, flight by flight
        (a flight's last new position, or all of them).

        Flights are grouped into row sets (:func:`~repro.models.cache.row_sets`):
        the prefills :func:`~repro.models.cache.packed_flights` admits stack
        into one set whose weight products are one GEMM per matrix for all of
        them; every other flight is a set of its own, a verify's rows each a
        single row.  The sets advance in lockstep, weight-major: every set
        multiplies against one weight matrix (and each flight attends
        against its own caches) before any moves to the next, then the
        shared blocked :meth:`lm_head` serves every wanted row.  A prefill's
        rows go through exactly the kernels they would alone and a verify
        row is the single-position step at its position, so a flight's
        logits are ``np.array_equal`` to a lone ``logits_cached(*rows[i])``
        and its caches end up byte-identical; one flight is that lone
        forward.
        """
        return self.lm_head(self._wanted_rows([CachedForward(*row) for row in rows]))

    def argmax_cached_rows(self, rows, labels=None) -> tuple[np.ndarray, int]:
        """:meth:`logits_cached_rows`' pass, finished by :meth:`head_argmax`
        instead of :meth:`lm_head`: ``(greedy token of every wanted
        position, fallbacks)`` — ``np.argmax(logits_cached_rows(rows),
        axis=-1)`` with the same hidden states and K/V rows, but only the
        argmax leaves the head; ``labels`` tag the head's counters."""
        return self.head_argmax(self._wanted_rows([CachedForward(*row) for row in rows]), labels)

    def _wanted_rows(self, flights: Sequence[CachedForward]) -> list[np.ndarray]:
        """Run the pass of ``flights`` (see :meth:`logits_cached_rows`) and
        return the final-normed hidden row of every wanted position."""
        sets = row_sets(self.config, [(len(f.new_ids), f.all_positions) for f in flights])
        verify = [flights[row_set[0]].all_positions for row_set in sets]
        per_set = lockstep(
            (
                self._row_steps([flights[index] for index in row_set], row_by_row)
                for row_set, row_by_row in zip(sets, verify)
            ),
            row_wise={index for index, row_by_row in enumerate(verify) if row_by_row},
        )
        hidden = dict(zip(chain.from_iterable(sets), chain.from_iterable(per_set)))
        return [
            self.ln_f(row)
            for index, flight in enumerate(flights)
            for row in (hidden[index] if flight.all_positions else hidden[index][-1:])
        ]

    def generate_cached(self, prompt_ids: np.ndarray, max_new_tokens: int = 8) -> np.ndarray:
        """Greedy decoding with a KV cache: prefill once, then O(1) steps.

        Emits exactly the same tokens as :meth:`generate` (asserted by the
        tests) while projecting each position only once per layer.
        """
        from repro.models.cache import KVCache

        ids = list(np.asarray(prompt_ids))
        # Final sequence length is known up front → size every layer's cache
        # exactly once; one workspace backs the scratch of all layers/steps.
        capacity = min(len(ids) + max_new_tokens, self.config.max_positions)
        cache = KVCache.empty(self.num_layers, capacity=capacity)
        workspace = Workspace()

        def step(new_ids: list[int], offset: int) -> int:
            logits = self.logits_cached(new_ids, offset, cache.layers, workspace=workspace)
            return int(np.argmax(logits))

        greedy_loop(step, ids, max_new_tokens, self.config.max_positions)
        return np.asarray(ids, dtype=np.int64)

    def generate(self, prompt_ids: np.ndarray, max_new_tokens: int = 8) -> np.ndarray:
        """Greedy decoding (full re-forward per step; no KV cache).

        Each step is exactly the single-forward workload the paper measures,
        so distributed systems can serve generation by re-running Algorithm 2
        per emitted token.
        """
        ids = list(np.asarray(prompt_ids))
        for _ in range(max_new_tokens):
            if len(ids) >= self.config.max_positions:
                break
            ids.append(self.next_token(np.asarray(ids, dtype=np.int64)))
        return np.asarray(ids, dtype=np.int64)
