"""Sequencers: the model-execution half of the engine, one step at a time.

A sequencer owns *how* a request computes; the engine owns *when*.  The
contract is a tiny state machine:

- ``begin(request, prompt, slot)`` binds a request to a KV slot and returns
  an opaque per-request state (no model compute happens here);
- ``step(state)`` runs exactly one token-step of model compute and returns
  ``(done, virtual_cost)`` — ``virtual_cost`` is the simulated seconds to
  charge a :class:`~repro.engine.clock.VirtualClock` (None means "charge
  measured wall time", the right default under a wall clock);
- ``result(state)`` is the finished request's output;
- ``stage(states)`` announces, once per engine iteration and before any of
  them is stepped, the states about to take a step, so that one forward
  can serve them all (the iteration forward, below);

plus the protocol attributes the engine builds its pool and prefix cache
from (:class:`_GreedySequencer`).

Greedy decoding is **one** state machine, :class:`_GreedySequencer` —
prefill, then per step *commit pending → draft ≤ budget → verify → accept →
roll back* — over a small backend that says where a forward runs:

- :class:`_SlotCacheBackend` — on the host, against the engine slot's own
  caches.  Every forward is literally the op sequence of
  :meth:`repro.models.gpt2.GPT2Model.generate_cached`'s inner step
  (embedding add, the cached layer per layer, final-norm LM head); buffer
  capacity is the only difference, and capacity never changes values.
- :class:`_SessionBackend` — on ``K`` resident ranks through a
  :class:`~repro.systems.decode.DecodeSession`; KV shards live rank-side.

Both expose one forward entry point, ``forward_rows``.

:class:`GPT2CachedSequencer` (slot caches, no proposer: every draft is
empty, so a step is ``generate_cached``'s single-position GEMV forward
op-for-op), ``speculative.SpeculativeSequencer`` (slot caches + a proposer)
and :class:`VoltageDecodeSequencer` (session) only construct it.  That is
what makes the engine's soak guarantee provable for all of them at once:
interleaving, preemption and restart permute *which* step runs next, never
what a step computes.

**One forward per engine iteration** (INTERNALS §10).  On the slot-cache
backend the first ``step`` of an iteration that needs model compute — a
prefill, a single-position decode or a verify round — runs one
``forward_rows`` for itself *and* every staged state whose own step will
need a forward too, and stashes their tokens; each of those steps then
commits, charges its own cost and consumes its tokens without touching the
model.  Inside, :meth:`GPT2Model.logits_cached_rows` makes it one pass over
the weights: multi-row flights packed into shared GEMMs, single positions
as GEMV rows in the same lockstep, one blocked LM head.  Each flight's rows
go through the kernels they would alone, so outputs are unchanged, and a
pass of one flight *is* the plain step — there is no other forward path.
``step`` stays the only call that runs model compute.

A preempted request is simply re-``begin``-ed later: greedy decoding is
deterministic, so recomputing from the prompt reproduces the discarded
steps exactly — correctness is preserved by construction, at the price of
redone work (counted by the engine as ``preemptions``).
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from repro.models.cache import packed_flights
from repro.obs.metrics import get_registry
from repro.obs.tracer import current_tracer
from repro.serving.arrivals import Request
from repro.engine.slots import KVSlot
from repro.systems.decode import DecodeSession, decode_capacity

__all__ = [
    "GPT2CachedSequencer",
    "VoltageDecodeSequencer",
]

#: Namespaces the per-tenant shared-prefix RNG stream apart from the
#: per-request suffix stream (which is seeded ``[prompt_seed, request.id]``).
_TENANT_PREFIX_NS = 0x5E9F


@dataclass
class _DecodeState:
    """One in-flight greedy decode bound to a KV slot."""

    request: Request
    slot: KVSlot
    ids: list[int]
    prompt_len: int
    next_id: int | None = None
    emitted: int = 0
    prefilled: bool = False
    done: bool = False
    cached_prefix: int = 0  # prompt rows seeded from the prefix cache
    draft: object = None  # proposer-owned per-request state


class _Forward(NamedTuple):
    """The forward a state's coming step runs — ``new_ids`` at ``offset``:
    its un-cached prompt rows, or its pending token plus the ``draft`` it
    verifies — and, once an iteration forward has run it, the greedy
    ``tokens`` that came out (one per new position for a draft, else the
    last position's alone; the rows are already appended to the slot)."""

    new_ids: list[int]
    offset: int
    draft: list[int]
    tokens: list[int] | None = None


#: What a backend's ``forward_rows`` takes per flight: ``(slot, new_ids,
#: offset, all_positions)`` — greedy tokens for every new position (a
#: verify) or only the last.
_Row = tuple[KVSlot, list[int], int, bool]


class _SlotCacheBackend:
    """Forwards run on the host against the engine slot's own KV caches."""

    supports_verify = True
    supports_rows = True

    def __init__(self, model):
        self.model = model

    def begin(self, slot: KVSlot, capacity: int) -> None:
        pass  # the slot already owns preallocated caches

    def forward_rows(
        self, rows: Sequence[_Row], labels: dict[str, str]
    ) -> tuple[list[list[int]], int]:
        """The greedy tokens of every row from one pass over the weights
        (:meth:`GPT2Model.argmax_cached_rows`: multi-row flights packed into
        shared GEMMs, single positions as GEMV rows, one argmax-only LM
        head) — each flight's layers the op sequence of ``generate_cached``'s
        inner ``step`` it would run alone, each token the argmax of the
        logits that step would compute (certified by the head's screen, or
        those very logits) — and how many rows fell back to the logits."""
        tokens, fallbacks = self.model.argmax_cached_rows(
            [
                (new_ids, offset, slot.caches, slot.workspace, all_positions)
                for slot, new_ids, offset, all_positions in rows
            ],
            labels,
        )
        tokens = iter(tokens.tolist())
        return [
            list(islice(tokens, len(new_ids) if all_positions else 1))
            for _, new_ids, _, all_positions in rows
        ], fallbacks

    def rollback(self, slot: KVSlot, length: int) -> None:
        slot.truncate(length)

    def release(self, slot: KVSlot) -> None:
        pass  # the engine recycles the slot


class _SessionBackend:
    """Forwards run on ``K`` resident ranks through a :class:`DecodeSession`.

    Slots carry no host-side KV state: the shard caches live rank-side,
    keyed by slot index, and a re-``begin`` on a slot replaces them
    (preemption restart).  The session has no multi-position verify or
    rollback command, so the state machine refuses it a proposer; nor a
    multi-slot forward command, so it declines other flights' rows and
    every forward stays one per flight.
    """

    supports_verify = False
    supports_rows = False

    def __init__(self, session: DecodeSession):
        self.session = session

    def begin(self, slot: KVSlot, capacity: int) -> None:
        self.session.begin(slot.index, capacity)

    def forward_rows(
        self, rows: Sequence[_Row], labels: dict[str, str]
    ) -> tuple[list[list[int]], int]:
        return [
            [self.session.forward(slot.index, new_ids, offset)]
            for slot, new_ids, offset, _ in rows
        ], 0  # the ranks' sharded head computes its logits

    def release(self, slot: KVSlot) -> None:
        self.session.release(slot.index)


class _GreedySequencer:
    """The greedy decode state machine, over a forward backend.

    Prefill is one forward over the (un-cached part of the) prompt.  Every
    later step is one draft–verify round: (a) commit the pending token —
    one iteration of ``generate_cached``'s loop; (b) ask the proposer for
    up to ``lookahead`` guesses; (c) verify pending+guesses in one batched
    forward; (d) commit the longest argmax-matching guess prefix and roll
    the rejected rows back.  Without a proposer every draft is empty and
    (c) is a single-position forward, (d) a no-op — the plain token-step
    decode.  The step returns one ``(done, cost)`` either way; it just may
    commit several tokens.

    Every forward — prefill, single position or verify — goes through
    :meth:`_iteration_forward`, which on a backend with ``supports_rows``
    runs it together with the forward of every :meth:`stage`-d state still
    to step this iteration.
    """

    #: Per-slot KV layers the engine's pool allocates; 0 for sequencers that
    #: keep no engine-side KV state (the pool then only bounds concurrency).
    num_layers = 0
    #: Whether the engine's prefix cache may hand this sequencer pre-seeded
    #: prompt rows (``begin(..., cached_prefix=k)``).
    supports_prefix_cache = False
    #: A cached-prefix match leaves at least this many prompt positions to
    #: re-prefill, keeping the suffix forward a multi-row batched GEMM —
    #: batch rows are bit-stable across batch shapes, single GEMV rows are
    #: not (INTERNALS §16), and bit-identity to ``generate_cached`` rides
    #: on exactly that.
    min_prefill_suffix = 2
    #: ``> 0`` opens every tenant-tagged request's prompt with that many
    #: tenant-keyed common tokens (the prefix-cache workload shape).
    shared_prefix_tokens = 0

    #: Drafting is off until :meth:`_speculate` switches it on.
    proposer = None
    lookahead = 0
    stats = None

    def __init__(
        self,
        model,
        backend,
        max_new_tokens: int,
        step_cost: Callable[[int, int], float] | None,
        prompt_seed: int,
    ):
        if max_new_tokens < 0:
            raise ValueError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
        self.model = model
        self.prompt_seed = prompt_seed
        self.slot_capacity = model.config.max_positions
        #: request id -> (requested n, clipped n) for prompts that exceeded
        #: the model's position budget (also counted on
        #: ``engine.prompt_truncated_total``).
        self.truncated_prompts: dict[int, tuple[int, int]] = {}
        self.backend = backend
        self.max_new_tokens = max_new_tokens
        self.step_cost = step_cost
        # the single cost hook: virtual seconds of one forward over
        # (new_positions, cache_len_before), or None to charge measured wall
        self._cost = step_cost if step_cost is not None else lambda new, cache_len: None
        # this iteration's staged states not yet stepped, and the forwards an
        # iteration forward already ran for some of them — both keyed by
        # request id
        self._staged: dict[int, _DecodeState] = {}
        self._stash: dict[int, _Forward] = {}
        self._labels: dict[str, str] = {}

    def _speculate(self, proposer, lookahead: int, stats) -> None:
        """Switch drafting on (``speculative.SpeculativeSequencer``'s whole
        job): ``proposer`` guesses up to ``lookahead`` tokens per round and
        ``stats`` counts what the verify forwards accept."""
        if lookahead < 1:
            raise ValueError(f"lookahead must be >= 1, got {lookahead}")
        if not self.backend.supports_verify:
            raise ValueError(
                f"{type(self.backend).__name__} has no multi-position verify forward "
                "or rollback to check a proposer's drafts with"
            )
        self.proposer, self.lookahead, self.stats = proposer, lookahead, stats

    def prompt_for(self, request: Request) -> np.ndarray:
        """Deterministic synthetic prompt: ``request.n`` tokens seeded by
        ``(prompt_seed, request.id)`` — the soak tests and the serve bench
        replay the same prompts offline to check bit-identity.

        ``request.n`` is clipped to the model's position budget — and the
        clip *recorded* in :attr:`truncated_prompts`: a request asking for
        more context than the model has is a serving misconfiguration worth
        surfacing, not something to silently absorb (recording is idempotent
        so preemption re-``begin``s don't double-count).  Tenant-tagged
        requests open with the same ``shared_prefix_tokens`` ids, seeded by
        ``(prompt_seed, tenant)`` so they do not depend on which replica
        builds them; at least ``min_prefill_suffix`` tokens stay
        request-unique, matching the prefix cache's match cap."""
        config = self.model.config
        n = min(request.n, config.max_positions)
        if n < request.n and request.id not in self.truncated_prompts:
            self.truncated_prompts[request.id] = (request.n, n)
            get_registry().counter("engine.prompt_truncated_total").inc()
        rng = np.random.default_rng([self.prompt_seed, request.id])
        suffix = rng.integers(0, config.vocab_size, size=n, dtype=np.int64)
        if request.tenant is None:
            return suffix
        prefix_len = min(self.shared_prefix_tokens, max(n - self.min_prefill_suffix, 0))
        if prefix_len <= 0:
            return suffix
        prefix_rng = np.random.default_rng(
            [self.prompt_seed, _TENANT_PREFIX_NS, zlib.crc32(request.tenant.encode())]
        )
        prefix = prefix_rng.integers(0, config.vocab_size, size=prefix_len, dtype=np.int64)
        return np.concatenate([prefix, suffix[prefix_len:]])

    def offline_reference(self, request: Request, prompt: np.ndarray | None = None) -> np.ndarray:
        """The ground-truth output: a fresh offline ``generate_cached`` run."""
        prompt = prompt if prompt is not None else self.prompt_for(request)
        return self.model.generate_cached(prompt, max_new_tokens=self.max_new_tokens)

    # -- the state machine -----------------------------------------------------

    def stage(self, states: Sequence, labels: dict[str, str] | None = None) -> None:
        """Remember the iteration's states so the first step that needs a
        forward can run it for all that do.  A stash entry is only valid for
        the iteration that computed it: one left over means a staged state's
        step was skipped after its KV rows were appended, and decoding on
        would read a corrupt cache."""
        if self._stash:
            raise RuntimeError(
                f"request(s) {sorted(self._stash)} were staged for an iteration forward "
                "but never stepped; their slots hold KV rows no step committed"
            )
        self._staged = {state.request.id: state for state in states}
        self._labels = labels if labels is not None else {}

    def begin(
        self,
        request: Request,
        prompt: np.ndarray,
        slot: KVSlot,
        cached_prefix: int = 0,
    ) -> _DecodeState:
        """Bind a request to its slot.  ``cached_prefix > 0`` declares that
        the slot already holds byte-exact K/V rows for the first
        ``cached_prefix`` prompt tokens (seeded by the engine from the
        prefix cache); prefill then covers only the remaining suffix."""
        if slot.length != cached_prefix:
            raise ValueError(
                f"slot {slot.index} was handed over dirty "
                f"(length {slot.length}, expected {cached_prefix} cached-prefix rows)"
            )
        prompt = np.asarray(prompt)
        if prompt.ndim != 1 or prompt.size < 1:
            raise ValueError(f"prompt must be a non-empty 1-D id array, got {prompt.shape}")
        if prompt.size > self.model.config.max_positions:
            raise ValueError(
                f"prompt of {prompt.size} tokens exceeds max_positions "
                f"{self.model.config.max_positions}"
            )
        if cached_prefix < 0 or (
            cached_prefix > 0 and cached_prefix > prompt.size - self.min_prefill_suffix
        ):
            raise ValueError(
                f"cached_prefix {cached_prefix} must leave >= {self.min_prefill_suffix} "
                f"prompt positions of a {prompt.size}-token prompt to prefill"
            )
        self.backend.begin(slot, decode_capacity(self.model, prompt.size, self.max_new_tokens))
        state = _DecodeState(
            request=request,
            slot=slot,
            ids=[int(t) for t in prompt],
            prompt_len=prompt.size,
            cached_prefix=cached_prefix,
        )
        if self.proposer is not None:
            state.draft = self.proposer.begin(state.ids)
        return state

    def cache_key(self, state: _DecodeState) -> tuple[int, ...] | None:
        """The token ids whose slot rows are safe to retain for the prefix
        cache: *prompt* rows only — prefill rows come from multi-row GEMMs
        (bit-stable across requests), decode rows from single-row GEMVs (not)
        — and only when at least ``min_prefill_suffix`` of them exist."""
        length = min(state.slot.length, state.prompt_len)
        if length < self.min_prefill_suffix:
            return None
        return tuple(state.ids[:length])

    def step(self, state: _DecodeState) -> tuple[bool, float | None]:
        if state.done:
            raise ValueError(f"request {state.request.id} already finished")
        max_positions = self.model.config.max_positions
        stats, ids = self.stats, state.ids
        self._staged.pop(state.request.id, None)
        # what an earlier step's iteration forward already ran for this one,
        # else what this step runs itself
        forward = self._stash.pop(state.request.id, None) or self._plan(state)
        if forward is not None:
            if forward.tokens is None:
                forward = self._iteration_forward(state, forward)
            elif state.slot.length != forward.offset + len(forward.new_ids):
                raise RuntimeError(
                    f"request {state.request.id}: its staged token was computed into a "
                    f"{forward.offset + len(forward.new_ids)}-row cache but slot "
                    f"{state.slot.index} holds {state.slot.length} rows"
                )
            cost = self._cost(len(forward.new_ids), forward.offset)
        if not state.prefilled:
            state.next_id = forward.tokens[-1]
            state.prefilled = True
            if self.max_new_tokens == 0 or len(ids) >= max_positions:
                self._finish(state)
            return state.done, cost
        # commit the pending token — one iteration of generate_cached's loop
        ids.append(state.next_id)
        state.emitted += 1
        if stats is not None:
            stats.emitted += 1
        if forward is None:
            self._finish(state)
            return True, 0.0 if self.step_cost is not None else None
        # with no guesses this was the exact one-position forward (same GEMV
        # head) of generate_cached — op-identical to non-speculative decode
        draft, guesses = forward.draft, forward.tokens
        accepted = 0
        while accepted < len(draft) and guesses[accepted] == draft[accepted]:
            accepted += 1
        if draft:
            ids.extend(draft[:accepted])
            state.emitted += accepted
            # roll back the rejected rows; rows for accepted tokens stay
            self.backend.rollback(state.slot, len(ids))
        state.next_id = guesses[accepted]
        if stats is not None:
            stats.record_round(len(draft), accepted)
        if len(ids) >= max_positions:
            # generate_cached breaks before committing the next pending token
            self._finish(state)
        return state.done, cost

    def _draft(self, state: _DecodeState, ids: list[int], emitted: int) -> list[int]:
        """Up to ``lookahead`` proposed tokens after the committed ``ids``
        (none while drafting is off: ``lookahead == 0``).  Budget: never
        draft past max_new (the final pending token is always committed
        without a forward, exactly like ``generate_cached``'s loop) or past
        the model's position budget."""
        budget = min(
            self.lookahead,
            self.max_new_tokens - emitted - 1,
            self.model.config.max_positions - len(ids),
        )
        if budget <= 0:
            return []
        return [int(t) for t in self.proposer.propose(state.draft, ids, budget)][:budget]

    def _plan(self, state: _DecodeState) -> _Forward | None:
        """The forward ``state``'s coming step runs, decided from what is
        observed before it: the prefill of its un-cached prompt rows; else
        its pending token plus a draft proposed from the ids it will hold
        once that token is committed — the ``(token, offset)`` the step
        would forward after committing — or None when the commit finishes
        the request and no forward runs.  Asks the proposer, so once per
        round."""
        ids = state.ids
        if not state.prefilled:
            return _Forward(ids[state.cached_prefix:], state.cached_prefix, [])
        if (
            state.emitted + 1 >= self.max_new_tokens
            or len(ids) + 1 >= self.model.config.max_positions
        ):
            return None
        draft = self._draft(state, ids + [state.next_id], state.emitted + 1)
        return _Forward([state.next_id] + draft, len(ids), draft)

    def _iteration_forward(self, state: _DecodeState, forward: _Forward) -> _Forward:
        """Run ``state``'s forward — together, on a backend that takes rows,
        with the forward of every staged state still to step this iteration
        (prefill, single position or verify round alike: one pass over the
        weights) — and stash the others' results for their own steps.  With
        nothing staged this is the plain single step."""
        forwards = {state.request.id: (state, forward)}
        if self.backend.supports_rows:
            forwards.update(
                (request_id, (other, plan))
                for request_id, other in self._staged.items()
                if (plan := self._plan(other)) is not None
            )
        self._staged.clear()  # all settled: no later step this iteration re-plans them
        rows = [
            (other.slot, plan.new_ids, plan.offset, bool(plan.draft))
            for other, plan in forwards.values()
        ]
        lengths = [len(plan.new_ids) for _, plan in forwards.values()]
        registry = get_registry()
        registry.counter("engine.cohort_forwards_total", **self._labels).inc()
        registry.histogram("engine.decode_cohort_rows", **self._labels).observe(len(rows))
        with current_tracer().span(
            "engine.decode_cohort", cat="engine", kind="compute", track="engine-wall",
            rows=len(rows), positions=sum(lengths),
            packed=len(packed_flights(self.model.config, lengths)),
        ) as span:
            tokens, fallbacks = self.backend.forward_rows(rows, self._labels)
            span.set(fallbacks=fallbacks)
        self._stash.update(
            (request_id, plan._replace(tokens=row_tokens))
            for (request_id, (_, plan)), row_tokens in zip(forwards.items(), tokens)
        )
        return self._stash.pop(state.request.id)

    def _finish(self, state: _DecodeState) -> None:
        state.done = True
        self.backend.release(state.slot)

    def result(self, state: _DecodeState) -> np.ndarray:
        if not state.done:
            raise ValueError(f"request {state.request.id} is still decoding")
        return np.asarray(state.ids, dtype=np.int64)


class GPT2CachedSequencer(_GreedySequencer):
    """Token-step greedy decoding over slot-owned KV caches — *bit-identical*
    to :meth:`repro.models.gpt2.GPT2Model.generate_cached` for the same prompt."""

    #: Slot rows are host-side K/V the prefix cache can retain and re-seed;
    #: Voltage sequencers keep KV state rank-side and opt out.
    supports_prefix_cache = True

    def __init__(
        self,
        model,
        max_new_tokens: int = 8,
        step_cost: Callable[[int, int], float] | None = None,
        prompt_seed: int = 0,
        shared_prefix_tokens: int = 0,
    ):
        """``step_cost(new_positions, cache_len_before)`` supplies the
        deterministic virtual-time cost of one forward; leave None to charge
        measured wall time (wall-clock serving).  ``prompt_seed`` namespaces
        the synthetic prompts :meth:`prompt_for` derives from request ids;
        ``shared_prefix_tokens > 0`` opens every tenant-tagged request's
        prompt with that many tenant-keyed common tokens (the prefix-cache
        workload shape).
        """
        if shared_prefix_tokens < 0:
            raise ValueError(
                f"shared_prefix_tokens must be >= 0, got {shared_prefix_tokens}"
            )
        super().__init__(model, _SlotCacheBackend(model), max_new_tokens, step_cost, prompt_seed)
        self.num_layers = model.num_layers
        self.shared_prefix_tokens = shared_prefix_tokens


class VoltageDecodeSequencer(_GreedySequencer):
    """Distributed greedy decoding with a position-sharded KV cache.

    The same state machine, prompts and offline reference as
    :class:`GPT2CachedSequencer`, but every forward runs on ``K`` resident
    ranks (:class:`_SessionBackend`): each rank holds only its span of each
    layer's K/V and reassembles the full cache with lossless all-gathers,
    so the emitted tokens are bit-identical to single-device
    ``generate_cached``.  Use as a context manager or call :meth:`close`
    to shut the session down.
    """

    def __init__(
        self,
        system,
        max_new_tokens: int = 8,
        step_cost: Callable[[int, int], float] | None = None,
        prompt_seed: int = 0,
        runtime=None,
        attention: str = "gathered",
    ):
        """``attention`` selects the decode mode the resident ranks run:
        ``"gathered"`` (lossless per-step K/V all-gather, bit-identical to
        ``generate_cached``) or ``"distributed"`` (local-shard attention
        with the log-sum-exp combine — exact up to float tolerance, per-step
        wire volume flat in the sequence length)."""
        session = DecodeSession(system, runtime=runtime, attention=attention)
        super().__init__(
            system.model, _SessionBackend(session), max_new_tokens, step_cost, prompt_seed
        )
        self.system = system

    def session(self) -> DecodeSession:
        """The resident rank pool (its ranks start on the first command)."""
        return self.backend.session

    def close(self) -> None:
        self.backend.session.close()

    def __enter__(self) -> "VoltageDecodeSequencer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
