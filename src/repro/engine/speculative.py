"""Draft-then-verify speculative decoding, bit-identical under greedy
exact-match acceptance.

The engine's base decode emits one token per forward, so serving throughput
is bounded by sequential small-GEMM latency — the regime edge devices live
in.  Speculative decoding breaks the sequential chain: a cheap *proposer*
guesses the next ``k`` tokens, the target model scores the pending token
plus all ``k`` guesses in **one** cached forward (an ``all_positions``
flight of :meth:`~repro.models.gpt2.GPT2Model.argmax_cached_rows` — the
residents' rounds of one engine iteration share the pass and its
argmax-only head), and the longest prefix of guesses that matches the
target's own greedy argmaxes is accepted.  Rejected positions are rolled
back with ``LayerKVCache.truncate`` — the same shrink-only rollback
preemption already uses.

Why outputs stay bit-identical to ``generate_cached`` (INTERNALS §16):
every row of a verify forward *is* ``generate_cached``'s decode step at its
position — its weight products single rows summed in the lone GEMV's order
(:func:`~repro.tensor.blas.rows_matmul`), its attention the lone step's over
the cache that ends at its own position — so its K/V rows and logits are
the bytes that step computes; and acceptance is *exact argmax match*, so
every emitted token is the target's greedy choice given the same committed
ids.  The soak tests assert tokens and K/V bytes against offline
``generate_cached`` across interleaving, preemption and both proposers.  A
round that drafts nothing is a one-row verify, the plain sequencer's step —
it *is* the same ``step`` body (``sequencer._GreedySequencer``): this module
only supplies the proposers, the counters and the construction that
switches drafting on.

The proposer is :class:`NgramProposer` — self-drafting: assume the
sequence keeps following its own most recent repeated suffix.  Free (no
model), and strong on greedy decodes, which settle into repetition
attractors.  A proposer is any object with ``begin(ids)`` (per-request
state, kept on ``_DecodeState.draft``) and ``propose(state, ids, k)``; what
it proposes decides only *which* tokens are verified, never what the
target accepts.

Virtual time: a verify round is one flight of its pass, priced as the row
set it runs in — its ``1 + k`` single-position steps, one call per layer
(``systems.decode.pass_seconds``).  A
proposer's own compute is not priced; on the wall clock the n-gram
proposer's is negligible (EXPERIMENTS "One cost model").
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.engine.sequencer import GPT2CachedSequencer
from repro.obs.metrics import get_registry

__all__ = [
    "NgramProposer",
    "SpeculativeSequencer",
    "SpeculativeStats",
]


@dataclass
class SpeculativeStats:
    """Monotonic counters over every decode the sequencer runs."""

    forwards: int = 0  # decode verify forwards (prefills excluded)
    rounds: int = 0  # forwards that carried >= 1 drafted token
    drafted: int = 0
    accepted: int = 0
    emitted: int = 0  # tokens committed by decode steps (pending + accepted)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.drafted if self.drafted else 0.0

    @property
    def tokens_per_forward(self) -> float:
        return self.emitted / self.forwards if self.forwards else 0.0

    def record_round(self, drafted: int, accepted: int) -> None:
        """One decode forward verified ``drafted`` guesses and kept ``accepted``
        (the state machine counts the pending token's commit itself)."""
        self.forwards += 1
        self.drafted += drafted
        self.accepted += accepted
        self.emitted += accepted
        registry = get_registry()
        if drafted:
            self.rounds += 1
            registry.counter("engine.speculative.drafted_total").inc(drafted)
            registry.counter("engine.speculative.accepted_total").inc(accepted)
        registry.counter("engine.speculative.forwards_total").inc()

    def snapshot(self) -> "SpeculativeStats":
        return replace(self)

    def delta(self, since: "SpeculativeStats") -> "SpeculativeStats":
        return SpeculativeStats(
            **{name: value - getattr(since, name) for name, value in asdict(self).items()}
        )

    def as_dict(self) -> dict:
        return {
            **asdict(self),
            "acceptance_rate": self.acceptance_rate,
            "tokens_per_forward": self.tokens_per_forward,
        }


class NgramProposer:
    """Self-drafting: continue the sequence's most recent repeated suffix.

    Greedy decodes of small LMs fall into repetition attractors — once a
    cycle starts, the continuation after an earlier occurrence of the
    current suffix *is* the next token.  The proposer looks for the longest
    suffix (up to ``max_order`` tokens) that occurred earlier, takes what
    followed its most recent earlier occurrence, and cycles it out to ``k``
    guesses.  No model, no state, no allocation.
    """

    name = "ngram"

    def __init__(self, max_order: int = 3):
        if max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {max_order}")
        self.max_order = max_order

    def begin(self, ids: list[int]) -> None:
        return None

    def propose(self, dstate: None, ids: list[int], k: int) -> list[int]:
        if k <= 0 or len(ids) < 2:
            return []
        for order in range(min(self.max_order, len(ids) - 1), 0, -1):
            suffix = ids[-order:]
            # most recent earlier occurrence (strictly before the suffix itself)
            for j in range(len(ids) - order - 1, -1, -1):
                if ids[j:j + order] == suffix:
                    continuation = ids[j + order:]
                    while len(continuation) < k:  # cycle-pad the attractor
                        continuation = continuation + continuation
                    return continuation[:k]
        return []


class SpeculativeSequencer(GPT2CachedSequencer):
    """Greedy decoding where each engine step is one draft–verify round.

    Drop-in for :class:`GPT2CachedSequencer` (same prompts, same offline
    reference, same prefix-cache support, same state machine): it only hands
    the machine a proposer, a ``lookahead`` budget and the counters, so
    every decode step may commit several tokens.
    """

    def __init__(self, model, proposer=None, lookahead: int = 4, **kwargs):
        super().__init__(model, **kwargs)
        self._speculate(
            proposer if proposer is not None else NgramProposer(), lookahead, SpeculativeStats()
        )
