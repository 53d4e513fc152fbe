"""GPT-2-style causal decoder with a tied language-model head."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from repro.models.base import TransformerModel
from repro.models.cache import (
    SMALL_GEMM_CELLS,
    SMALL_GEMM_FLOPS,
    SMALL_GEMM_MIN_DEPTH,
    LayerKVCache,
    layer_steps_cached,
    lockstep,
    packed_flights,
)
from repro.models.config import TransformerConfig, gpt2_config
from repro.models.embeddings import TextEmbeddings
from repro.models.tokenizer import SimpleTokenizer
from repro.obs.metrics import get_registry
from repro.tensor.layers import LayerNorm
from repro.tensor.module import Module, ModuleList
from repro.tensor.workspace import Workspace

__all__ = ["CachedForward", "GPT2Model", "greedy_loop", "head_screen_block"]

#: Embedding-table bytes one LM-head block covers: ≈ 1 MiB, small enough to
#: stay cache resident while every cohort row is multiplied against it
#: (measured flat from 128 to 512 rows at F=768; 1024 rows loses a third).
_LM_HEAD_BLOCK_BYTES = 1 << 20
#: Hidden rows one screening product of :meth:`GPT2Model.head_argmax`
#: carries; more rows meet each table block in groups of this many
#: (measured at F = 768: 8-row groups of 150-row blocks serve 8–20 rows
#: faster than 4-row groups of 300-row blocks, 30 against 38 ms at 16 rows).
_SCREEN_GROUP_ROWS = 8
#: float32 unit roundoff, and the largest ``‖h‖·‖e‖`` for which no partial
#: sum of a float32 dot product can overflow (the error bound assumes none).
_UNIT_ROUNDOFF = 2.0**-24
_NO_OVERFLOW = 1e38
#: float32 cells of screening logits kept at a time (128 KiB, one request of
#: fixed size to the workspace): a chunk of table blocks is screened into
#: them, reduced to each row's running top two, and overwritten by the next.
_SCREEN_SCRATCH_CELLS = 1 << 15


def greedy_loop(step, ids: list[int], max_new_tokens: int, max_positions: int) -> list[int]:
    """Greedy decoding's control flow, spelled once: ``step(new_ids,
    offset) -> next token id`` runs one cached forward — first over the
    whole prompt ``ids``, then over each appended token — and ``ids`` grows
    in place, stopping at ``max_new_tokens`` new tokens or ``max_positions``
    ids; returns ``ids``.  :meth:`GPT2Model.generate_cached`, the decode
    session's clients and ``systems.decode.decode_step_totals`` (over
    lengths only) all run it."""
    next_id = step(ids, 0)
    for _ in range(max_new_tokens):
        if len(ids) >= max_positions:
            break
        ids.append(next_id)
        if len(ids) >= max_positions:
            break
        next_id = step([ids[-1]], len(ids) - 1)
    return ids


def head_screen_block(rows: int, width: int) -> int:
    """Table rows per block of the screening head: the most for which the
    ``(rows, width) @ (width, block)`` product — whose right operand reaches
    BLAS transposed, a panel of the row-major table — still takes OpenBLAS's
    small-matrix kernel, which reads the panel in place where the blocked
    kernel first packs it (:data:`repro.models.cache.SMALL_GEMM_FLOPS` and
    its two neighbours).  Below the minimum depth no transposed product
    takes it and only the multiply-add rule sizes the block.  A speed rule
    only: the screen is checked against an error bound, not bit-equal to
    anything, so a BLAS with other cutoffs is slower, never wrong."""
    cells = SMALL_GEMM_FLOPS // width
    if width >= SMALL_GEMM_MIN_DEPTH:
        cells = min(cells, SMALL_GEMM_CELLS)
    return max(1, cells // rows)


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

    def head_argmax(self, rows, workspace=None, labels=None) -> tuple[np.ndarray, int]:
        """``(np.argmax(self.lm_head(rows), axis=-1), fallbacks)`` — the
        greedy token of each of the ``B`` final-normed hidden rows of a pass
        — without the logits leaving the head (INTERNALS §9).

        From two float32 rows up, *screening* logits come from one
        ``(≤ 8, F) @ table[s:e].T`` product per table block
        (:func:`head_screen_block`), so the table is streamed from memory
        once for all rows and no row re-reads a block from L2.  Their
        summation order is whatever the small GEMM kernel uses, so they are
        not :meth:`lm_head`'s logits; but any float32 dot product over ``F``
        terms, in any order, fused or not, is within
        ``γ_F·‖h‖₂·‖e_j‖₂`` of the exact one (``γ_F = F·u / (1 − F·u)``,
        ``u = 2⁻²⁴``), hence a screening logit is within ``bound =
        2·γ_F·‖h‖₂·max_j‖e_j‖₂`` of :meth:`lm_head`'s.  A row whose screened
        top-two margin exceeds ``2·bound`` is *certified*: ``lm_head`` puts
        the same index strictly above every other, so ``np.argmax`` of its
        logits is that index.  Every other row — an exact or near tie, a
        norm product large enough for a partial sum to overflow (which
        covers every non-finite input) — is recomputed by :meth:`lm_head`
        itself; ``fallbacks`` counts them.  A lone row, and any row set that
        is not float32 throughout, is ``lm_head``'s own op sequence.

        ``workspace`` backs the screening scratch — a fixed 128 KiB however
        many rows (``_SCREEN_SCRATCH_CELLS``), never a ``(B, vocab)`` array;
        ``labels`` tag the two counters recorded here,
        ``models.head_rows_screened_total`` and
        ``models.head_argmax_fallbacks_total``.
        """
        table = self.embeddings.word.weight.data
        if len(rows) < 2 or any(a.dtype != np.float32 for a in (table, *rows)):
            return np.argmax(self.lm_head(rows), axis=-1), 0
        count, (vocab, width) = len(rows), table.shape
        hidden = np.stack(rows)
        group = min(count, _SCREEN_GROUP_ROWS)
        block = head_screen_block(group, width)
        chunk = block * max(1, _SCREEN_SCRATCH_CELLS // (count * block))
        cells = max(_SCREEN_SCRATCH_CELLS, count * chunk)
        scratch = (workspace or Workspace()).take("head_screen", (cells,))
        order = np.arange(count)
        tokens = np.zeros(count, dtype=np.int64)
        # the two largest screening logits of each row so far, ascending
        top_two = np.full((2, count), -np.inf, dtype=np.float32)
        for first in range(0, vocab, chunk):
            last = min(first + chunk, vocab)
            screen = scratch[: count * (last - first)].reshape(count, last - first)
            for column in range(0, last - first, block):
                panel = table[first + column : first + column + block].T
                for lead in range(0, count, group):
                    np.matmul(
                        hidden[lead : lead + group],
                        panel,
                        out=screen[lead : lead + group, column : column + block],
                    )
            best = np.argmax(screen, axis=-1)
            leaders = screen[order, best]
            screen[order, best] = -np.inf
            # strictly greater: of equal logits the lowest index stays, as in np.argmax
            tokens = np.where(leaders > top_two[1], first + best, tokens)
            top_two = np.sort(np.vstack([top_two, leaders, np.max(screen, axis=-1)]), axis=0)[-2:]
        margin = top_two[1].astype(np.float64) - top_two[0]
        # norms in float64 and rounded up; the last term covers products
        # that underflow (each off by less than the smallest subnormal)
        scale = np.linalg.norm(hidden.astype(np.float64), axis=-1) * self._table_row_norm(table)
        gamma = width * _UNIT_ROUNDOFF / (1 - width * _UNIT_ROUNDOFF)
        bound = 2 * gamma * scale * (1 + 1e-6) + width * float(np.finfo(np.float32).tiny)
        uncertain = np.flatnonzero(~((scale < _NO_OVERFLOW) & (margin > 2 * bound)))
        if uncertain.size:
            tokens[uncertain] = np.argmax(self.lm_head([rows[i] for i in uncertain]), axis=-1)
        registry, labels = get_registry(), labels or {}
        registry.counter("models.head_rows_screened_total", **labels).inc(count)
        registry.counter("models.head_argmax_fallbacks_total", **labels).inc(uncertain.size)
        return tokens, uncertain.size

    def _table_row_norm(self, table: np.ndarray) -> float:
        """``max_j ‖e_j‖₂`` over the rows of the tied table, in float64 —
        one buffered pass (no float64 copy of the table), remembered for as
        long as ``table`` is the array the embedding holds (rebinding
        ``weight.data``, as :func:`~repro.compress.quantize_model_` does, is
        seen; writing into it in place is not)."""
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

    def _row_steps(self, flights: Sequence[CachedForward]):
        """The KV-cached forward of one *row set* — the new rows of
        ``flights`` stacked into one ``(Σt, F)`` activation, so each weight
        matrix is one product for all of them while every flight attends
        against its own caches — as a step generator (pausing at every
        weight boundary of every layer, see
        :func:`repro.models.cache.layer_steps_cached`); returns each
        flight's hidden states before the final norm.  Scratch for the
        stacked projection is the first flight's: a set of one flight is
        exactly that flight's lone forward."""
        lengths = [len(f.new_ids) for f in flights]
        ids = np.concatenate([np.asarray(f.new_ids, dtype=np.int64) for f in flights])
        positions = np.concatenate(
            [np.arange(f.offset, f.offset + rows) for f, rows in zip(flights, lengths)]
        )
        x = self.embeddings.word(ids) + self.embeddings.position(positions)
        workspace = flights[0].workspace
        for index, layer in enumerate(self.layers):
            segments = [(rows, f.caches[index], f.workspace) for f, rows in zip(flights, lengths)]
            x = yield from layer_steps_cached(layer, x, segments, workspace)
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

        By default only the last position's logits come back (``(vocab,)``,
        the greedy-decode head).  ``all_positions=True`` returns the full
        ``(t, vocab)`` matrix — the multi-position *verify* forward of
        speculative decoding, which needs the target's argmax at every
        drafted position from one batched pass.
        """
        logits = self.logits_cached_rows([(new_ids, offset, caches, workspace, all_positions)])
        return logits if all_positions else logits[0]

    def logits_cached_rows(self, rows) -> np.ndarray:
        """The logits of independent cached forwards — flights,
        ``rows[i] = (new_ids, offset, caches, workspace[, all_positions])``
        (:class:`CachedForward`) — from one pass over the weights: the
        wanted positions' logits ``(Σ wanted, vocab)``, flight by flight
        (a flight's last new position, or all of them).

        Flights are grouped into row sets.  Those :func:`packed_flights`
        admits — multi-row flights: prefills, verify rounds — stack into
        one set whose weight products are one GEMM per matrix for all of
        them; every other flight (each single-position decode, whose
        products must stay GEMVs) is a set of its own.  The sets advance in
        lockstep, weight-major: every set multiplies against one weight
        matrix (and each flight attends against its own caches) before any
        moves to the next, then the shared blocked :meth:`lm_head` serves
        every wanted row.  Each flight's rows go through exactly the
        kernels they would alone, so its logits are ``np.array_equal`` to a
        lone ``logits_cached(*rows[i])`` and its caches end up
        byte-identical; one flight is that lone forward.
        """
        return self.lm_head(self._wanted_rows([CachedForward(*row) for row in rows]))

    def argmax_cached_rows(self, rows, labels=None) -> tuple[np.ndarray, int]:
        """:meth:`logits_cached_rows`' pass, finished by :meth:`head_argmax`
        instead of :meth:`lm_head`: ``(greedy token of every wanted
        position, fallbacks)`` — ``np.argmax(logits_cached_rows(rows),
        axis=-1)`` with the same hidden states and K/V rows, but only the
        argmax leaves the head.  Screening scratch is the first flight's
        workspace's; ``labels`` tag the head's counters."""
        flights = [CachedForward(*row) for row in rows]
        return self.head_argmax(self._wanted_rows(flights), flights[0].workspace, labels)

    def _wanted_rows(self, flights: Sequence[CachedForward]) -> list[np.ndarray]:
        """Run the pass of ``flights`` (see :meth:`logits_cached_rows`) and
        return the final-normed hidden row of every wanted position."""
        packed = packed_flights(self.config, [len(flight.new_ids) for flight in flights])
        row_sets = [packed] * bool(packed) + [
            [index] for index in range(len(flights)) if index not in packed
        ]
        per_set = lockstep(
            self._row_steps([flights[index] for index in row_set]) for row_set in row_sets
        )
        hidden = dict(zip(chain.from_iterable(row_sets), chain.from_iterable(per_set)))
        return [
            self.ln_f(row)
            for index, flight in enumerate(flights)
            for row in (hidden[index] if flight.all_positions else hidden[index][-1:])
        ]

    def truncated_draft(self, num_layers: int = 1) -> "GPT2Model":
        """A shallower draft model for speculative decoding: shares this
        model's embeddings, first ``num_layers`` transformer layers and
        final norm *by reference* — no extra weights (none are even drawn:
        the draft is assembled from the shared modules, in the
        constructor's registration order), same tokenizer and vocab, so its
        greedy proposals track the full model closely while each draft
        forward runs ``num_layers / L`` of the layer stack."""
        if not 1 <= num_layers < self.num_layers:
            raise ValueError(
                f"draft depth must be in [1, {self.num_layers - 1}], got {num_layers}"
            )
        draft = GPT2Model.__new__(GPT2Model)
        Module.__init__(draft)
        draft.config = self.config.scaled(
            num_layers=num_layers, name=f"{self.config.name}-draft{num_layers}"
        )
        draft.layers = ModuleList(list(self.layers)[:num_layers])
        draft.embeddings = self.embeddings
        draft.ln_f = self.ln_f
        draft.tokenizer = self.tokenizer
        return draft

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
