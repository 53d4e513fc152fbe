"""Distributed autoregressive decode with a position-sharded KV cache.

Extends Voltage's position-partitioned execution (paper Algorithm 2) from a
single forward pass to greedy generation.  The protocol keeps the paper's
data layout — every device owns a contiguous span of sequence positions —
and shards both the storage and the two largest costs of a step:

* **The LM head is sharded by vocab rows.**  Decode at the edge is
  memory-bound, and the tied embedding table is the largest thing a step
  streams; ``K`` ranks each streaming all of it over one memory bus is why
  replicated decode lost to one device.  Rank ``r`` multiplies the final
  hidden row against only its contiguous row range of the table
  (:func:`decode_head_parts`: the ranks' span shares, boundaries on
  multiples of 64 rows, views of the one table), and the ranks exchange one
  packed ``(max logit, index)`` pair each — ``O(K)`` wire bytes, not
  ``O(vocab)`` — taking the first maximum in rank order, ``np.argmax``'s
  lowest-index rule exactly.  A shard's GEMV is bit-equal to the same rows
  of ``row @ table.T`` (INTERNALS §13).
* **Multi-row steps are partitioned by span.**  On a prefill or chunked
  forward each rank pushes only the new rows inside its KV span through the
  layers (:func:`decode_step_slices`) and appends exactly those K/V rows;
  a per-layer K/V all-gather gives it the history they attend to, and one
  ``(1, F)`` gather hands the last row's hidden state to the sharded head.
  Row-sliced GEMMs are bit-equal to the same rows of the all-rows GEMM as
  long as BLAS serves both with one kernel, which the step's shapes decide
  (``_same_gemm_kernels``); a step where they would not — every
  single-token step among them, a 1-row product being a GEMV — runs all
  its rows on every rank, as a single device would.  The split depends on
  shapes only, so a partitioned step runs the same way — K/V gathered,
  bit-identical to ``generate_cached`` — under either attention mode; the
  modes differ only on the all-rows steps, whose layers are replicated.
* **KV storage is sharded.** Each rank's ``LayerKVCache`` holds only the
  rows of K/V whose positions fall inside its span, so per-rank cache
  memory drops to O(L·T/K).  Spans are fixed per request from
  ``scheme_for(capacity, layer)`` over the request's full capacity
  (``min(prompt + max_new, max_positions)``) so a row's owner never moves
  as the sequence grows.
* **Assembly is a lossless all-gather.** Before attention each rank
  gathers every peer's K/V shard rows and concatenates them in rank order,
  reconstructing exactly the array a single-device cache would hold —
  shard spans partition ``[0, capacity)`` contiguously in rank order, so
  clipping each span to the filled prefix ``[0, total)`` and concatenating
  gives ``[0, total)`` bit-exactly.  K/V rows always cross the wire in
  their native dtype regardless of the system's lossy activation
  ``wire_dtype``: a rounded cache row would be re-read on every subsequent
  step and the error would compound, so the decode path never applies the
  forward pass's lossy wire encoding (INTERNALS §13).

The last bullet describes every step under ``attention="gathered"`` (the
lossless baseline) and every partitioned step under either mode:
bit-identical to ``generate_cached`` but attending every new row against
the full history on its rank and moving ``2(K-1)tHF_H/K`` elements per
layer per step, growing with the sequence.  On an all-rows step
``attention="distributed"`` instead scores the new rows only against the
local shard and exchanges
packed per-head log-sum-exp stats (``K·H·(F_H+2)`` elements per layer, flat
in t); a deterministic rank-ordered combine (:mod:`repro.core.combine`)
reconstructs exact attention up to float re-association.  Cross-rank
outputs stay bit-identical — every rank combines the same gathered stats
in the same order — so only the comparison against the single device
moves to the verify harness's regime-2 closeness tolerance, and per-rank
score/context FLOPs drop to O(t/K).  See INTERNALS §14.

One rank-side step kernel, two exchanges.  :func:`sharded_decode_step` is
the only "embed → sharded layers → sharded LM head" body: it appends the
new K/V rows to the shards its caller *owns*, takes each owned shard's
local contribution (K/V views, or packed softmax stats; then head
candidates) and all-gathers them into the rank-ordered whole.  Only the
all-gather differs between surfaces — K = 1 and the host emulation are the
same code with one or all shards owned:

* a real collective (``ctx.all_gather``) when the caller owns one rank's
  shards — :class:`DecodeSession`, the only runner of real ranks: resident ranks
  on a ``ThreadedRuntime`` or ``ProcessRuntime`` fed per-step commands, the
  host asserting every step that all ranks emitted the same token.  The
  engine's ``VoltageDecodeSequencer`` drives it, and so does
  :func:`generate_distributed` (begin, the greedy loop, close);
* a host-side merge (``np.concatenate``) when the caller owns all ``K``
  shards — :func:`run_decode`, which pairs the emulated tokens with
  :func:`decode_timeline`, the one shapes-only per-token latency timeline
  (decode-phase Γ model, ``core.complexity.decode_rank_flops``) that
  ``bench.analytic.voltage_decode_latency`` also returns.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from contextlib import ExitStack
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.cluster.process_runtime import ProcessRuntime, resolve_runtime
from repro.cluster.runtime import CommStats, WorkerContext
from repro.cluster.simulator import ClusterSim
from repro.cluster.timeline import LatencyBreakdown
from repro.core.combine import (
    combine_softmax_stats,
    local_softmax_stats,
    neutral_softmax_stats,
    pack_softmax_stats,
    unpack_softmax_stats,
)
from repro.core.complexity import (
    DECODE_ATTENTION_MODES,
    decode_rank_flops,
    select_decode_order,
    select_order,
)
from repro.core.partition import Partition
from repro.models.cache import (
    SMALL_GEMM_CELLS,
    SMALL_GEMM_FLOPS,
    SMALL_GEMM_MIN_DEPTH,
    LayerKVCache,
    attend_cached,
    layer_steps,
    lockstep,
    same_weight_kernels,
    shard_kv_views,
)
from repro.obs.tracer import current_tracer
from repro.tensor.workspace import Workspace
from repro.systems.base import InferenceResult

__all__ = [
    "DecodeSession",
    "decode_capacity",
    "decode_head_parts",
    "decode_layer_spans",
    "decode_stats_wire",
    "decode_step_pricing",
    "decode_step_slices",
    "decode_step_totals",
    "decode_timeline",
    "generate_distributed",
    "run_decode",
    "sharded_decode_step",
]

# Token ids travel as int64 (the dtype generate_cached emits); K/V rows
# travel in the model's float32 compute dtype.  Neither is subject to the
# lossy activation wire_dtype — cache rows are re-read every step, so any
# rounding would compound across the whole generation.
_ID_ITEMSIZE = 8
_KV_ITEMSIZE = 4
# One rank's head candidate on the wire: (max logit, vocab index) as float64.
_PAIR_BYTES = 16
# Vocab-shard boundaries sit on multiples of this many table rows, where the
# BLAS GEMV's unrolled row groups fall in the whole-table product too.
_HEAD_ROW_ALIGN = 64
# decode_timeline's name for a step's layer all-gathers, by exchange.
_COMM_PHASES = {"kv": "kv shard all-gather", "stats": "combine stats all-gather"}

#: One layer's shards a caller owns, each paired with the span it covers.
Owned = Sequence[tuple[Partition, LayerKVCache]]
#: ``all_gather(chunks, axis)``: the owned ranks' chunks in, every rank's
#: chunks concatenated along ``axis`` in rank order out.  A collective when
#: the caller owns one rank (:func:`_rank_stepper`), ``np.concatenate`` when
#: it owns them all (:func:`run_decode`) — the whole difference between a
#: real rank and the host emulation.
AllGather = Callable[[list[np.ndarray], int], np.ndarray]


def _check_attention(attention: str) -> None:
    if attention not in DECODE_ATTENTION_MODES:
        raise ValueError(
            f"attention must be one of {DECODE_ATTENTION_MODES}, got {attention!r}"
        )


def decode_capacity(model, prompt_len: int, max_new_tokens: int) -> int:
    """Cache capacity for a request — mirrors ``generate_cached`` exactly."""
    if prompt_len < 1:
        raise ValueError(f"prompt must hold at least one token, got {prompt_len}")
    if max_new_tokens < 0:
        raise ValueError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
    return min(prompt_len + max_new_tokens, model.config.max_positions)


def decode_layer_spans(system, capacity: int) -> list[list[Partition]]:
    """Per-layer, per-rank position spans, fixed for the request's lifetime.

    Spans are drawn over the *capacity* (not the current length) so the
    owner of any position is a pure function of the request shape: rows
    never migrate between ranks as the sequence grows.
    """
    return [
        system.scheme_for(capacity, layer=index).positions(capacity)
        for index in range(system.model.num_layers)
    ]


def decode_stats_wire(wire_dtype: str) -> tuple[np.dtype, int]:
    """``(numpy dtype, itemsize)`` the combine stats cross the wire in.

    ``float16`` systems halve the stats frames too (the rounding error is
    covered by the closeness regime, exactly like activation rounding on
    the forward path); ``int8`` systems keep float32 stats — the affine
    int8 codec is calibrated per channel for activations, not for a
    running-max / normaliser pair whose dynamic range spans the whole
    score distribution.
    """
    if wire_dtype == "float16":
        return np.dtype(np.float16), 2
    return np.dtype(np.float32), 4


def decode_head_parts(parts: Sequence[Partition], vocab_size: int) -> list[Partition]:
    """Each rank's contiguous vocab-row range of the tied LM head.

    The ranges follow the ranks' KV spans ``parts`` (so the system's
    partition ratios) with every boundary on a multiple of
    ``_HEAD_ROW_ALIGN`` rows — what keeps a shard's GEMV bit-equal to the
    same rows of the whole-table product (``GPT2Model.lm_head``).  They
    cover ``[0, vocab_size)`` in rank order; a rank whose span is empty, or
    any rank once ``64·K`` outgrows the vocabulary, may own no rows.
    """
    units = -(-vocab_size // _HEAD_ROW_ALIGN)
    capacity = parts[-1].stop
    edges = [0] + [
        min(vocab_size, _HEAD_ROW_ALIGN * ((units * part.stop + capacity // 2) // capacity))
        for part in parts
    ]
    return [Partition(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _same_gemm_kernels(config, rows: int, all_rows: int, total: int) -> bool:
    """Whether BLAS serves a ``rows``-row slice of a layer step's GEMMs with
    the kernels — so the summation order — it serves all ``all_rows`` with,
    which is what makes the slice bit-equal to those rows of the whole.

    Measured on this repo's OpenBLAS and asserted by the tests (INTERNALS
    §13).  The weight products' half of the rule — no 1-row slice (a GEMV),
    slice and whole on the same side of the small-matrix cutoff — is
    :func:`repro.models.cache.same_weight_kernels`, shared with the packed
    row sets of a single device; a slice also shortens the attention
    products, which a packed row set leaves whole.  The context product
    ``P·V`` must keep its side of the cutoff too.  The transposed-operand
    ``Q·Kᵀ`` scores take the small kernel only up to ``SMALL_GEMM_CELLS``
    output cells (and from ``F_H >= 32``), and there even a slice of a
    small product differs — the slice must not.
    """
    if rows == all_rows:
        return True  # the very call the single device makes
    if config.head_dim >= SMALL_GEMM_MIN_DEPTH and rows * total <= SMALL_GEMM_CELLS:
        return False
    context = config.head_dim * total
    return same_weight_kernels(config, rows, all_rows) and (
        (rows * context <= SMALL_GEMM_FLOPS) == (all_rows * context <= SMALL_GEMM_FLOPS)
    )


def decode_step_slices(
    config, layer_parts: Sequence[Sequence[Partition]], offset: int, added: int
) -> list[Partition] | None:
    """Rank by rank, the new rows ``[offset, offset + added)`` that fall in
    its KV span — when the step is *span-partitioned*; ``None`` when every
    rank runs all the rows.  Decided from shapes alone — never from the
    attention mode — so the kernel, its pricing and the wire-byte oracles
    agree by construction.

    A rank of a partitioned step pushes only its own rows through the
    layers and the K/V all-gather hands it the history they attend to, in
    either attention mode.  That needs rows to split (``added >= 2``); one
    span layout shared by every layer (a rank's rows must stay its own from
    layer to layer); and every rank's slice empty or bit-equal to the same
    rows of the all-rows step (:func:`_same_gemm_kernels` — which rules out
    every single-token step).
    """
    parts = layer_parts[0]
    if added < 2 or any(other != parts for other in layer_parts):
        return None
    total = offset + added
    slices = []
    for part in parts:
        lo = max(part.start, offset)
        hi = max(lo, min(part.stop, total))
        if hi > lo and not _same_gemm_kernels(config, hi - lo, added, total):
            return None
        slices.append(Partition(lo, hi))
    return slices


def _exchange(slices: list[Partition] | None, attention: str) -> str:
    """What the layers of a step with these :func:`decode_step_slices`
    all-gather: ``"kv"`` (K/V shard rows) under ``attention="gathered"`` and
    on every partitioned step, ``"stats"`` (packed log-sum-exp stats) on a
    distributed-attention all-rows step."""
    return "kv" if attention == "gathered" or slices is not None else "stats"


def _append_owned(owned: Owned, k_new: np.ndarray, v_new: np.ndarray, offset: int) -> None:
    """Append to each owned shard the slice of the new rows that falls
    inside its span (possibly none)."""
    added = k_new.shape[1]
    for part, shard in owned:
        lo = max(part.start, offset)
        hi = min(part.stop, offset + added)
        if hi > lo:
            shard.append(
                k_new[:, lo - offset : hi - offset], v_new[:, lo - offset : hi - offset]
            )


def _attend_gathered(
    attention, mine: Owned, owned: Owned, first_row: int, all_gather: AllGather,
    workspace: Workspace, q: np.ndarray, k_new: np.ndarray, v_new: np.ndarray,
):
    """The gathered ``attend`` hook (a generator, see ``layer_steps``) of
    the rows starting at ``first_row``: append them to their owners among
    ``mine``, pause, then all-gather every rank's shard view and attend.

    The pause is what lets one caller own several ranks: it drives them in
    lockstep, so every owned shard holds its new rows before any rank
    gathers (a rank under a runtime has the collective's barrier for that,
    and its pause is a no-op).  The rank-order concatenation is
    value-identical to a full single-device cache append followed by a read
    (a pure row copy), and everything after it is ``attend_cached`` — the
    single-device op sequence.
    """
    _append_owned(mine, k_new, v_new, first_row)
    yield
    heads, _, head_dim = k_new.shape

    def gathered(*_new_rows):
        views = [shard_kv_views(shard, heads, head_dim, k_new.dtype) for _, shard in owned]
        return all_gather([k for k, _ in views], 1), all_gather([v for _, v in views], 1)

    return attend_cached(attention, gathered, first_row, True, workspace, q, k_new, v_new)


def _local_stats_packed(
    q: np.ndarray, part: Partition, shard: LayerKVCache, offset: int
) -> np.ndarray:
    """One rank's packed ``(o, m, l)`` combine stats for its shard.

    A shard with no populated rows yet (trailing span before the sequence
    reaches it, or K > capacity) contributes the combine's neutral element.
    """
    heads, new, head_dim = q.shape
    k_shard, v_shard = shard_kv_views(shard, heads, head_dim, q.dtype)
    if k_shard.shape[1]:
        o, m, length = local_softmax_stats(
            q, k_shard, v_shard, shard_start=part.start, query_offset=offset
        )
    else:
        o, m, length = neutral_softmax_stats(heads, new, head_dim, dtype=q.dtype)
    return pack_softmax_stats(o, m, length)


def _attend_sharded(
    owned: Owned, offset: int, all_gather: AllGather, stats_dtype: np.dtype,
    q: np.ndarray, k_new: np.ndarray, v_new: np.ndarray,
) -> np.ndarray:
    """The distributed ``attend`` hook over one layer's owned shards.

    Appends the new K/V rows to their owners, computes partial attention
    over each owned shard's *local* rows only, and gathers the packed
    ``(o, m, l)`` stats — ``(K, H, P, F_H+2)`` in rank order — before the
    deterministic rank-ordered log-sum-exp combine.  Every rank combines
    the same gathered stats in the same order, so all ranks (and the host
    emulation) produce the bit-identical layer output; only the comparison
    against a *single-device* decode needs a tolerance.
    """
    _append_owned(owned, k_new, v_new, offset)
    # stats may round to float16 on the wire; they are *not* re-read on
    # later steps (unlike cache rows), so the error cannot compound — it is
    # a one-shot rounding covered by the closeness tolerance.  The float32
    # upcast happens after the gather so the combine arithmetic is identical
    # on every rank.
    wire = [
        _local_stats_packed(q, part, shard, offset).astype(stats_dtype, copy=False)[None]
        for part, shard in owned
    ]
    gathered = all_gather(wire, 0).astype(np.float32)
    return combine_softmax_stats([unpack_softmax_stats(chunk) for chunk in gathered])


def _best_pair(logits: np.ndarray, first_row: int) -> np.ndarray:
    """A shard's packed ``(max logit, vocab index)`` pair, ``(1, 2)`` float64
    (exact for float32 logits and any vocab index); index -1 = no rows."""
    if not logits.size:
        return np.array([[-np.inf, -1.0]])
    best = int(np.argmax(logits))
    return np.array([[logits[best], first_row + best]], dtype=np.float64)


def _first_max(pairs: np.ndarray) -> int:
    """The vocab index of the first maximum, in rank order, among the ranks'
    ``(K, 2)`` :func:`_best_pair` rows — ``np.argmax``'s lowest-index rule
    over the whole logits row: within a shard ``np.argmax`` already kept its
    lowest index, and shards are contiguous ascending ranges."""
    pairs = pairs[pairs[:, 1] >= 0]  # a shard without rows has no candidate
    return int(pairs[np.argmax(pairs[:, 0]), 1])


def sharded_decode_step(
    model,
    layer_parts: Sequence[Sequence[Partition]],
    shards: Sequence[Sequence[LayerKVCache]],
    ranks: Sequence[int],
    new_ids: Sequence[int],
    offset: int,
    all_gather: AllGather,
    stats_dtype: np.dtype,
    workspaces: Sequence[Workspace],
    attention: str = "gathered",
) -> tuple[int, list[np.ndarray]]:
    """One decode step as seen by the owner of ``ranks``' shards; returns the
    greedy token and, per owned rank, its vocab shard of the last new
    position's LM-head logits (:func:`decode_head_parts`; concatenated in
    rank order they are the full logits row).

    ``shards[i]`` holds layer ``i``'s KV shard for each of ``ranks`` and
    ``workspaces`` one scratch workspace per owned rank — one rank under a
    runtime, all ``K`` in host emulation.

    *Layers.*  On a span-partitioned step (:func:`decode_step_slices`) each
    owned rank runs only the new rows inside its span, the ranks in
    lockstep; otherwise all the rows run once, appended to every owned
    shard.  A partitioned step, and any step under
    ``attention="gathered"``, has ``all_gather`` assemble the full K/V from
    every rank's shard: either shape is op-for-op ``generate_cached``'s
    rows — bit-identical to the single device.  On an all-rows step under
    ``attention="distributed"`` each shard is attended locally and
    ``all_gather`` exchanges the packed log-sum-exp combine stats (in
    ``stats_dtype`` on the wire) — exact up to float re-association
    (INTERNALS §14).  Each owned rank's layers are one ``decode.layers``
    span: the ``rows`` it ran, the step's ``added`` rows and its
    ``exchange`` (``kv`` or ``stats``).

    *Head.*  After a partitioned step only the last row's owner holds its
    hidden state, so one ``(1, F)`` gather hands it to everyone.  Each rank
    then multiplies it against its own vocab rows only, and the ranks
    exchange one packed ``(max logit, index)`` pair each — ``O(K)`` wire
    bytes, not ``O(vocab)``; the first maximum in rank order is
    ``np.argmax``'s lowest-index rule exactly.
    """
    _check_attention(attention)
    ids = np.asarray(new_ids, dtype=np.int64)
    total = offset + len(ids)
    slices = decode_step_slices(model.config, layer_parts, offset, len(ids))
    exchange = _exchange(slices, attention)
    # the rows each compute group runs: everything once, or one slice per owned rank
    groups = [Partition(offset, total)] if slices is None else [slices[rank] for rank in ranks]
    xs = [
        model.embeddings.word(ids[rows.start - offset : rows.stop - offset])
        + model.embeddings.position(np.arange(rows.start, rows.stop))
        for rows in groups
    ]
    with ExitStack() as spans:
        for rank in ranks:
            spans.enter_context(current_tracer().span(
                "decode.layers", cat="systems", kind="compute", track=f"rank {rank}", device=rank,
                rows=len(ids) if slices is None else slices[rank].length, added=len(ids),
                exchange=exchange,
            ))
        for index, layer in enumerate(model.layers):
            owned = [(layer_parts[index][rank], shard) for rank, shard in zip(ranks, shards[index])]
            steps = []
            for group, (rows, x, workspace) in enumerate(zip(groups, xs, workspaces)):
                if exchange == "kv":
                    # all the rows land in every owned shard; a slice only in its rank's
                    mine = owned if slices is None else owned[group : group + 1]
                    attend = partial(
                        _attend_gathered, layer.attention, mine, owned, rows.start, all_gather,
                        workspace,
                    )
                else:
                    attend = partial(_attend_sharded, owned, offset, all_gather, stats_dtype)
                steps.append(layer_steps(layer, x, attend, workspace))
            xs = lockstep(steps)

    if slices is None:
        last = xs[0][-1]
    else:  # zero rows from everyone but the owner of the last new position
        last = all_gather(
            [x[-1:] if rows.stop == total else x[:0] for rows, x in zip(groups, xs)], 0
        )[0]
    hidden = model.ln_f(last)
    head_parts = decode_head_parts(layer_parts[-1], model.config.vocab_size)
    pair_bytes = (len(head_parts) - 1) * _PAIR_BYTES
    logits = []
    for rank in ranks:
        part = head_parts[rank]
        with current_tracer().span(
            "decode.head", cat="systems", kind="compute", track=f"rank {rank}", device=rank,
            vocab_rows=part.length, pair_bytes=pair_bytes,
        ):
            logits.append(model.lm_head([hidden], part.start, part.stop)[0])
    pairs = all_gather(
        [_best_pair(shard, head_parts[rank].start) for rank, shard in zip(ranks, logits)], 0
    )
    return _first_max(pairs), logits


def greedy_loop(
    model, step: Callable[[list[int], int], int], ids: list[int], max_new_tokens: int
) -> list[int]:
    """The exact control flow of ``generate_cached``'s greedy loop."""
    max_positions = model.config.max_positions
    next_id = step(ids, 0)
    for _ in range(max_new_tokens):
        if len(ids) >= max_positions:
            break
        ids.append(next_id)
        if len(ids) >= max_positions:
            break
        next_id = step([ids[-1]], len(ids) - 1)
    return ids


def _sharded_stepper(system, layer_parts, ranks: Sequence[int], all_gather: AllGather, attention):
    """One request's decode over ``ranks``' shards — one fresh KV shard per
    owned span (sized to it) and a workspace per owned rank, the stats wire
    dtype — bound to the step kernel as ``step(new_ids, offset) -> (token,
    owned shard logits)``: the one builder both surfaces (a session rank,
    the host emulation) share."""
    shards = [
        [LayerKVCache(capacity=parts[rank].length or None) for rank in ranks]
        for parts in layer_parts
    ]
    return partial(
        sharded_decode_step, system.model, layer_parts, shards, ranks,
        all_gather=all_gather, stats_dtype=decode_stats_wire(system.wire_dtype)[0],
        workspaces=[Workspace() for _ in ranks], attention=attention,
    )


def _rank_stepper(system, ctx: WorkerContext, capacity: int, attention: str):
    """Rank ``ctx.rank``'s side of one request — spans fixed over
    ``capacity``, the all-gather a real collective — as
    ``step(new_ids, offset) -> next token id``."""

    def all_gather(chunks, axis):
        (mine,) = chunks  # a rank owns exactly its own shard
        return ctx.all_gather(mine, axis=axis)

    layer_parts = decode_layer_spans(system, capacity)
    step = _sharded_stepper(system, layer_parts, [ctx.rank], all_gather, attention)
    return lambda new_ids, offset: step(new_ids, offset)[0]


def generate_distributed(
    system, prompt_ids, max_new_tokens: int = 8, runtime=None, timeout=None,
    attention: str = "gathered",
):
    """Greedy decode on ``K`` ranks with position-sharded KV storage.

    A client of :class:`DecodeSession`: one slot begun at the request's
    capacity, ``generate_cached``'s greedy loop over the session's
    ``forward``, then ``close``, whose per-rank ``CommStats`` are returned.
    Every rank holds only its span of each layer's K/V and its vocab rows of
    the LM head.  With ``attention="gathered"`` each step reassembles the
    full cache with two lossless ``all_gather`` calls per layer and the
    returned ``ids`` are bit-identical to
    ``model.generate_cached(prompt_ids, max_new_tokens)``.  With
    ``attention="distributed"`` each rank attends only against its local
    shard and the ranks exchange one packed stats all-gather per layer on
    every step that is not span-partitioned (a partitioned prefill gathers
    K/V as above) — per-step wire volume independent of the sequence
    length, outputs exact up to float re-association.  Either way every rank's token is
    bit-identical across ranks (the combine is a deterministic rank-ordered
    reduction), which the session asserts on every step.  ``timeout``
    overrides the session's (its ranks' per-receive bound and its reply
    wait).
    """
    model = system.model
    ids = [int(token) for token in np.asarray(prompt_ids)]
    capacity = decode_capacity(model, len(ids), max_new_tokens)
    options = {} if timeout is None else {"timeout": timeout}
    with DecodeSession(system, runtime=runtime, attention=attention, **options) as session:
        session.begin(0, capacity)
        greedy_loop(model, partial(session.forward, 0), ids, max_new_tokens)
    return np.asarray(ids, dtype=np.int64), session.close()


def decode_step_pricing(
    config,
    layer_parts: Sequence[Sequence[Partition]],
    added: int,
    total: int,
    attention: str = "gathered",
    stats_itemsize: int = 4,
):
    """Price one decode step — the cost source of :func:`decode_timeline`,
    driven by ``core.complexity.decode_rank_flops`` and the step's shape
    (:func:`decode_step_slices`).
    Returns ``(per_rank_flops, layer_collectives, head_collectives)``:

    - ``per_rank_flops[r]`` — rank ``r``'s matmul FLOPs for the step: the
      layer stack over the rows it runs (its span's slice on a partitioned
      step, all ``added`` otherwise) plus ``F·V_r`` for its vocab shard of
      the LM head.  Gathered attention scores a row against the full
      history; distributed attention only against the rank's local shard
      rows, so heterogeneous spans yield heterogeneous per-rank FLOPs.  A
      partitioned step is priced as gathered in either mode: that is how
      it runs.
    - ``layer_collectives[i]`` — the ordered all-gather chunk-byte lists
      layer ``i`` issues: two lossless K/V row gathers when the step's
      exchange is ``"kv"``, one packed-stats gather when ``"stats"``.
    - ``head_collectives`` — the head's: the ``(1, F)`` last-row gather of a
      partitioned step (one non-empty chunk, its owner's), then the
      ``K``-pair ``(max logit, index)`` exchange.
    """
    _check_attention(attention)
    k = len(layer_parts[0])
    heads, fh = config.num_heads, config.head_dim
    slices = decode_step_slices(config, layer_parts, total - added, added)
    if slices is not None:
        attention = "gathered"  # how a partitioned step runs, in either mode
    rank_rows = [added] * k if slices is None else [rows.length for rows in slices]
    per_rank_flops = [
        config.hidden_size * part.length
        for part in decode_head_parts(layer_parts[-1], config.vocab_size)
    ]
    layer_collectives: list[list[list[int]]] = []
    for parts in layer_parts:
        local_rows = [
            max(0, min(part.stop, total) - max(part.start, 0)) for part in parts
        ]
        for rank in range(k):
            if rank_rows[rank]:
                per_rank_flops[rank] += decode_rank_flops(
                    attention, total, config.hidden_size, fh, heads, config.ffn_dim,
                    new_positions=rank_rows[rank], local_rows=local_rows[rank],
                )
        if attention == "gathered":
            chunk_bytes = [heads * rows * fh * _KV_ITEMSIZE for rows in local_rows]
            layer_collectives.append([chunk_bytes, chunk_bytes])  # K rows, V rows
        else:
            layer_collectives.append([[heads * added * (fh + 2) * stats_itemsize] * k])
    head_collectives = [[_PAIR_BYTES] * k]
    if slices is not None:
        row_bytes = config.hidden_size * _KV_ITEMSIZE
        head_collectives.insert(
            0, [row_bytes if 0 < rows.length and rows.stop == total else 0 for rows in slices]
        )
    return per_rank_flops, layer_collectives, head_collectives


def decode_timeline(
    config,
    layer_parts: Sequence[Sequence[Partition]],
    sim: ClusterSim,
    prompt_len: int,
    max_new_tokens: int,
    attention: str = "gathered",
    stats_itemsize: int = 4,
) -> tuple[LatencyBreakdown, list[float], list[int], list[int]]:
    """The per-token latency timeline of one sharded decode — shapes only.

    The single source of the decode phase sequence: :func:`run_decode`
    attaches it to the emulated tokens, ``bench.analytic`` returns it
    weight-free.  Replays the greedy loop over lengths
    (:func:`decode_step_totals`) and prices every step through
    :func:`decode_step_pricing`; spans are fixed over the request's full
    capacity, so each step's chunk sizes are the spans clipped to the filled
    prefix.  Returns the phase breakdown, each step's compute + comm
    seconds, and per step the wire bytes one device receives in the layers
    (``sum(chunks) - max(chunks)`` per collective: the K/V gathers or the
    stats gathers) and, as its own term, in the head exchange
    (``sum(chunks) - min(chunks)``: what a rank other than the last row's
    owner receives).  Each step's comm phase is named by the exchange it
    used (:func:`_exchange`).
    """
    latency = LatencyBreakdown()
    latency.add("broadcast prompt", "comm", sim.broadcast(_ID_ITEMSIZE * prompt_len))
    per_step_seconds: list[float] = []
    per_step_bytes: list[int] = []
    per_step_head_bytes: list[int] = []
    totals = decode_step_totals(prompt_len, max_new_tokens, config.max_positions)
    for step_index, total in enumerate(totals):
        added = prompt_len if step_index == 0 else 1
        per_rank_flops, layer_collectives, head_collectives = decode_step_pricing(
            config, layer_parts, added, total,
            attention=attention, stats_itemsize=stats_itemsize,
        )
        layer_chunks = [chunks for collectives in layer_collectives for chunks in collectives]
        compute_s = sim.compute_makespan(per_rank_flops)
        comm_s = sum(sim.all_gather(chunks) for chunks in layer_chunks)
        head_s = sum(sim.all_gather(chunks) for chunks in head_collectives)
        slices = decode_step_slices(config, layer_parts, total - added, added)
        latency.add("decode step compute", "compute", compute_s, layer=step_index)
        latency.add(_COMM_PHASES[_exchange(slices, attention)], "comm", comm_s, layer=step_index)
        latency.add("head exchange", "comm", head_s, layer=step_index)
        per_step_seconds.append(compute_s + comm_s + head_s)
        per_step_bytes.append(sum(sum(chunks) - max(chunks) for chunks in layer_chunks))
        per_step_head_bytes.append(sum(sum(c) - min(c) for c in head_collectives))
    final_len = max(prompt_len, min(prompt_len + max_new_tokens, config.max_positions))
    latency.add(
        "gather output to terminal", "comm", sim.point_to_point(_ID_ITEMSIZE * final_len)
    )
    return latency, per_step_seconds, per_step_bytes, per_step_head_bytes


def run_decode(
    system, prompt_ids, max_new_tokens: int = 8, attention: str = "gathered"
) -> InferenceResult:
    """Host-emulated sharded decode with a simulated per-token timeline.

    Runs the step kernel a :class:`DecodeSession` rank runs
    (:func:`sharded_decode_step`) in a single process: the host owns all
    ``K`` ranks' shards and ``np.concatenate`` stands in for the all-gather
    collective (wire-dtype round trip of the stats included), so the
    emulated tokens are bit-identical to the runtime's.  The latency is
    :func:`decode_timeline` over the request's shapes.
    """
    model = system.model
    config = model.config
    k = system.k
    ids0 = [int(token) for token in np.asarray(prompt_ids)]
    capacity = decode_capacity(model, len(ids0), max_new_tokens)
    layer_parts = decode_layer_spans(system, capacity)
    # owning every shard, the host's all-gather is plain concatenation
    sharded = _sharded_stepper(system, layer_parts, range(k), np.concatenate, attention)

    final_logits: np.ndarray | None = None
    final_logits_prefix = 0

    def step(new_ids, offset):
        nonlocal final_logits, final_logits_prefix
        token, shard_logits = sharded(new_ids, offset)
        final_logits = np.concatenate(shard_logits)
        final_logits_prefix = offset + len(new_ids)
        return token

    ids = greedy_loop(model, step, list(ids0), max_new_tokens)
    output = np.asarray(ids, dtype=np.int64)

    latency, per_token_seconds, per_step_comm_bytes, per_step_head_bytes = decode_timeline(
        config, layer_parts, system.sim, len(ids0), max_new_tokens,
        attention=attention, stats_itemsize=decode_stats_wire(system.wire_dtype)[1],
    )
    totals = decode_step_totals(len(ids0), max_new_tokens, config.max_positions)
    addeds = [len(ids0)] + [1] * (len(totals) - 1)
    uncached_orders = []
    kv_gather_bytes = 0  # the steps whose layers gathered K/V; the rest gathered stats
    for added, total, comm_bytes in zip(addeds, totals, per_step_comm_bytes):
        if added == total:
            order = select_order(total, added, config.hidden_size, config.head_dim)
        else:
            order = select_decode_order(
                total, config.hidden_size, config.head_dim, cached=False
            )
        uncached_orders.append("eq8" if order.is_reordered else "eq3")
        slices = decode_step_slices(config, layer_parts, total - added, added)
        kv_gather_bytes += comm_bytes if _exchange(slices, attention) == "kv" else 0
    meta = {
        "system": "voltage-decode",
        "devices": k,
        "decode_attention": attention,
        "prompt_tokens": len(ids0),
        "tokens": len(ids),
        "capacity": capacity,
        "steps": len(per_token_seconds),
        "per_token_seconds": per_token_seconds,
        "kv_gather_bytes_per_device": kv_gather_bytes,
        "combine_bytes_per_device": sum(per_step_comm_bytes) - kv_gather_bytes,
        "per_step_comm_bytes_per_device": per_step_comm_bytes,
        "head_bytes_per_device": sum(per_step_head_bytes),
        "cached_order": "eq3",
        "uncached_orders": uncached_orders,
        "shard_spans": [[part.start, part.stop] for part in layer_parts[0]],
        "final_logits": final_logits,
        "final_logits_prefix": final_logits_prefix,
    }
    return InferenceResult(output=output, latency=latency, meta=meta)


def decode_step_totals(prompt_len: int, max_new_tokens: int, max_positions: int) -> list[int]:
    """Sequence lengths seen by each decode step — deterministic in shapes.

    Replays ``generate_cached``'s control flow over lengths only: the
    prefill step sees ``prompt_len`` rows; each later step sees one row at
    the post-append length, stopping early at ``max_positions`` exactly
    where the real loop does.
    """
    totals = [prompt_len]
    length = prompt_len
    for _ in range(max_new_tokens):
        if length >= max_positions:
            break
        length += 1
        if length >= max_positions:
            break
        totals.append(length)
    return totals


class DecodeSession:
    """A resident K-rank decode service driven by per-step commands — the
    only runner of real decode ranks (:func:`generate_distributed` and the
    engine's ``VoltageDecodeSequencer`` are its clients).

    The engine interleaves token steps of many requests, so a launch per
    request would pay runtime startup per token.  Instead the session keeps
    all ``K`` ranks alive inside one long-lived ``runtime.run`` call (on a
    background thread) and feeds them commands over per-rank queues:

    - ``("begin", slot, capacity)`` — allocate this rank's KV shards for
      the slot, spans fixed over ``capacity`` (re-beginning a slot simply
      replaces its shards, which is how preemption restarts work);
    - ``("forward", slot, new_ids, offset)`` — run one position-sharded
      decode step (:func:`sharded_decode_step` over ``ctx.all_gather``)
      and reply with the next token id;
    - ``("release", slot)`` / ``("shutdown", None)`` — drop state / exit.

    Every rank executes every command, so collectives inside a forward
    line up; the host asserts all ranks replied the same token — a
    per-step distributed consistency check.  Queues are created before
    the runtime starts, which makes them usable under ``ProcessRuntime``:
    it forks, so pre-existing ``multiprocessing.Queue`` ends survive into
    the children.

    A failed or timed-out command breaks the session for good — the failing
    rank is gone and its peers' replies were never read, so a later command
    could only block for ``timeout`` or pair a stale reply with a new
    request.  The first failure therefore shuts the ranks down and every
    later command raises immediately, chained to the original error.  An
    error that ends ``runtime.run`` without failing a command (a comm thread
    re-raised at join, a rank dying at shutdown) is raised by
    :meth:`close`.
    """

    def __init__(self, system, runtime=None, timeout: float = 60.0, attention: str = "gathered"):
        _check_attention(attention)
        self.system = system
        self.k = system.k
        self.timeout = timeout
        self.attention = attention
        # A resident session returns worker results only at shutdown, so the
        # process runtime's no-progress watchdog needs the session-lifetime
        # timeout, not the per-recv default.
        self._runtime = resolve_runtime(runtime, self.k, timeout=timeout)
        make_queue = (
            multiprocessing.Queue if isinstance(self._runtime, ProcessRuntime) else queue.Queue
        )
        self._commands = [make_queue() for _ in range(self.k)]
        self._replies = [make_queue() for _ in range(self.k)]
        self._thread: threading.Thread | None = None
        self._stats: list[CommStats] = []  # the ranks' counters, once runtime.run returns
        self._error: BaseException | None = None  # what ended runtime.run, if anything
        self._failure: BaseException | None = None  # the first failed command
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def _serve(self) -> None:
        system, attention = self.system, self.attention
        commands, replies = self._commands, self._replies

        def worker(ctx):
            steppers: dict[int, Callable[[list[int], int], int]] = {}
            while True:
                op, slot, *args = commands[ctx.rank].get()
                value = None
                try:
                    if op == "begin":
                        steppers[slot] = _rank_stepper(system, ctx, *args, attention)
                    elif op == "forward":
                        value = steppers[slot](*args)
                    elif op == "release":
                        steppers.pop(slot, None)
                    elif op != "shutdown":
                        raise ValueError(f"unknown session command {op!r}")
                except Exception as exc:  # reply first so the host fails loudly
                    replies[ctx.rank].put(("error", f"{type(exc).__name__}: {exc}"))
                    raise
                replies[ctx.rank].put(("ok", value))
                if op == "shutdown":
                    return None

        try:
            _, self._stats = self._runtime.run(worker)
        except BaseException as exc:
            self._error = exc

    def _ensure_started(self) -> None:
        if self._failure is not None:
            raise RuntimeError(
                f"decode session is broken by an earlier failure: {self._failure}"
            ) from self._failure
        if self._closed:
            raise RuntimeError("decode session is closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._serve, name="decode-session", daemon=True
            )
            self._thread.start()

    def _command(self, payload: tuple):
        """Send one command to every rank and collect every reply; the first
        failure shuts the session down (see the class docstring)."""
        self._ensure_started()
        for rank in range(self.k):
            self._commands[rank].put(payload)
        try:
            values = []
            for rank in range(self.k):
                try:
                    status, value = self._replies[rank].get(timeout=self.timeout)
                except queue.Empty:
                    detail = f": {self._error!r}" if self._error else ""
                    raise RuntimeError(
                        f"decode session rank {rank} did not reply to {payload[0]!r} "
                        f"within {self.timeout}s{detail}"
                    ) from self._error
                if status != "ok":
                    raise RuntimeError(f"decode session rank {rank} failed: {value}")
                values.append(value)
            return values
        except RuntimeError as exc:
            self._failure = exc
            self.close()
            raise

    # -- the command surface ---------------------------------------------------

    def begin(self, slot: int, capacity: int) -> None:
        self._command(("begin", slot, capacity))

    def forward(self, slot: int, new_ids: list[int], offset: int) -> int:
        values = self._command(("forward", slot, [int(t) for t in new_ids], int(offset)))
        first = values[0]
        for rank, value in enumerate(values):
            if value != first:
                raise AssertionError(
                    f"rank {rank} decoded token {value} where rank 0 decoded {first}"
                )
        return first

    def release(self, slot: int) -> None:
        self._command(("release", slot))

    def close(self) -> list[CommStats]:
        """Shut the ranks down (once; later calls only report) and return
        their per-rank ``CommStats`` — empty if they never started.  Unless
        a failed command already raised, raises if ``runtime.run`` has not
        ended within ``timeout`` (a hung shutdown), or the error that ended
        it, chained."""
        if not self._closed:
            self._closed = True
            if self._thread is not None:
                for rank in range(self.k):
                    self._commands[rank].put(("shutdown", None))
                self._thread.join(timeout=self.timeout)
        if self._failure is None and self._thread is not None and self._thread.is_alive():
            raise RuntimeError(
                f"decode session {self._thread.name!r}: the ranks did not shut down "
                f"within {self.timeout}s"
            )
        if self._error is not None and self._failure is None:
            raise RuntimeError(f"decode session ranks failed: {self._error}") from self._error
        return self._stats

    def __enter__(self) -> "DecodeSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
