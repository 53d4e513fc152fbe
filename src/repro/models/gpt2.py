"""GPT-2-style causal decoder with a tied language-model head."""

from __future__ import annotations

import numpy as np

from repro.models.base import TransformerModel
from repro.models.cache import layer_steps_cached, lockstep, run_steps
from repro.models.config import TransformerConfig, gpt2_config
from repro.models.embeddings import TextEmbeddings
from repro.models.tokenizer import SimpleTokenizer
from repro.tensor.layers import LayerNorm

__all__ = ["GPT2Model"]

#: Embedding-table bytes one LM-head block covers: ≈ 1 MiB, small enough to
#: stay cache resident while every cohort row is multiplied against it
#: (measured flat from 128 to 512 rows at F=768; 1024 rows loses a third).
_LM_HEAD_BLOCK_BYTES = 1 << 20


class GPT2Model(TransformerModel):
    """GPT-2: pre-LN causal transformer, final layer norm, tied LM head.

    The paper deploys GPT-2 for text classification with a 200-word input —
    a single forward pass over the prompt, which is what the distributed
    systems execute.  :meth:`generate` additionally provides greedy
    autoregressive decoding as an example-level extension.
    """

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
        """Tied LM head over ``B`` last-position hidden rows (each ``(F,)``)
        → logits ``(B, hi - lo)`` against vocab rows ``[lo, hi)`` of the
        embedding table (the whole vocabulary by default) — the one
        last-position head in the repo.  A rank of a sharded decode passes
        its own range (:func:`repro.systems.decode.decode_head_parts`).

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

    def _row_steps(self, new_ids, offset: int, caches, workspace):
        """One KV-cached forward over ``new_ids`` at ``offset`` as a step
        generator (pausing at every weight boundary of every layer, see
        :func:`repro.models.cache.layer_steps_cached`); returns the new
        positions' hidden states before the final norm."""
        positions = np.arange(offset, offset + len(new_ids))
        x = self.embeddings.word(np.asarray(new_ids, dtype=np.int64))
        x = x + self.embeddings.position(positions)
        for layer, layer_cache in zip(self.layers, caches):
            x = yield from layer_steps_cached(layer, x, layer_cache, workspace)
        return x

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
        :class:`~repro.models.cache.LayerKVCache`, e.g. an engine slot's).

        By default only the last position's logits come back (``(vocab,)``,
        the greedy-decode head): the cohort of one of
        :meth:`logits_cached_rows`.  ``all_positions=True`` returns the full
        ``(t, vocab)`` matrix — the multi-position *verify* forward of
        speculative decoding, which needs the target's argmax at every
        drafted position from one batched pass.
        """
        if not all_positions:
            return self.logits_cached_rows([(new_ids, offset, caches, workspace)])[0]
        hidden = run_steps(self._row_steps(new_ids, offset, caches, workspace))
        return self.lm_logits(self.ln_f(hidden))

    def logits_cached_rows(self, rows) -> np.ndarray:
        """Last-position logits ``(B, vocab)`` of ``B`` independent cached
        forwards, ``rows[i] = (new_ids, offset, caches, workspace)`` — one
        pass over the weights for the whole cohort.

        The rows advance in lockstep, weight-major: every row multiplies
        against one weight matrix (and attends against its own caches)
        before any row moves to the next, then the shared blocked
        :meth:`lm_head` serves them all.  Each row runs exactly the ops
        (shapes, operands, scratch) it would run alone, so row ``i`` is
        ``np.array_equal`` to a lone ``logits_cached(*rows[i])`` and its
        caches end up byte-identical; ``B = 1`` is that lone forward.
        """
        hidden = lockstep(self._row_steps(*row) for row in rows)
        return self.lm_head([self.ln_f(x[-1]) for x in hidden])

    def truncated_draft(self, num_layers: int = 1) -> "GPT2Model":
        """A shallower draft model for speculative decoding: shares this
        model's embeddings, first ``num_layers`` transformer layers and
        final norm *by reference* — no extra weights, same tokenizer and
        vocab, so its greedy proposals track the full model closely while
        each draft forward runs ``num_layers / L`` of the layer stack."""
        from repro.tensor.module import ModuleList

        if not 1 <= num_layers < self.num_layers:
            raise ValueError(
                f"draft depth must be in [1, {self.num_layers - 1}], got {num_layers}"
            )
        config = self.config.scaled(
            num_layers=num_layers, name=f"{self.config.name}-draft{num_layers}"
        )
        draft = GPT2Model(config, rng=np.random.default_rng(0))
        draft.embeddings = self.embeddings
        draft.layers = ModuleList(list(self.layers)[:num_layers])
        draft.ln_f = self.ln_f
        draft.tokenizer = self.tokenizer
        return draft

    def generate_cached(self, prompt_ids: np.ndarray, max_new_tokens: int = 8) -> np.ndarray:
        """Greedy decoding with a KV cache: prefill once, then O(1) steps.

        Emits exactly the same tokens as :meth:`generate` (asserted by the
        tests) while projecting each position only once per layer.
        """
        from repro.models.cache import KVCache
        from repro.tensor.workspace import Workspace

        ids = list(np.asarray(prompt_ids))
        # Final sequence length is known up front → size every layer's cache
        # exactly once; one workspace backs the scratch of all layers/steps.
        capacity = min(len(ids) + max_new_tokens, self.config.max_positions)
        cache = KVCache.empty(self.num_layers, capacity=capacity)
        workspace = Workspace()

        def step(new_ids: list[int], offset: int) -> int:
            logits = self.logits_cached(new_ids, offset, cache.layers, workspace=workspace)
            return int(np.argmax(logits))

        next_id = step(ids, 0)  # prefill over the whole prompt
        for _ in range(max_new_tokens):
            if len(ids) >= self.config.max_positions:
                break
            ids.append(next_id)
            if len(ids) >= self.config.max_positions:
                break
            next_id = step([ids[-1]], len(ids) - 1)
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
