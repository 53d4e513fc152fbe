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
  the system's ``schedule(capacity)`` over the request's full capacity
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

One step kernel, one rank.  :func:`sharded_decode_step` is the only "embed
→ sharded layers → sharded LM head" body, and it serves one rank: it
appends the new K/V rows that fall in that rank's spans to its shards, takes
its local contribution (K/V views, or packed softmax stats; then its head
candidate) and all-gathers it with its peers' through ``ctx.all_gather``,
whose rank-ordered concatenation is the whole.  Its only runner is
:class:`DecodeSession`: a ``repro.cluster.service.RankService`` whose
resident ranks, on a ``ThreadedRuntime`` or ``ProcessRuntime``, are fed
per-step commands, the host asserting every step that all ranks emitted the
same token.  The session has three clients: the engine's
``VoltageDecodeSequencer``; :func:`generate_distributed` (begin, the greedy
loop, close); and :func:`run_decode`, the same driver on the default
threaded runtime, which also collects the last step's vocab-shard logits
and pairs the tokens with :func:`decode_timeline`, the one shapes-only
per-token latency timeline (decode-phase Γ model,
``core.complexity.decode_rank_flops``), which also prices a decode without
weights.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.cluster.device import DeviceSpec
from repro.cluster.runtime import WorkerContext
from repro.cluster.service import RankService
from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
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
    decode_layer_flops,
    decode_rank_flops,
    select_decode_order,
    select_order,
)
from repro.core.partition import Partition, PartitionScheme
from repro.core.schedule import LayerSchedule
from repro.models.cache import (
    SMALL_GEMM_CELLS,
    SMALL_GEMM_FLOPS,
    SMALL_GEMM_MIN_DEPTH,
    LayerKVCache,
    attend_cached,
    layer_steps,
    row_sets,
    run_steps,
    same_weight_kernels,
    shard_kv_views,
)
from repro.models.gpt2 import greedy_loop
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
    "pass_seconds",
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
    return system.layer_parts(capacity)


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


def _append_span(
    part: Partition, shard: LayerKVCache, k_new: np.ndarray, v_new: np.ndarray, first_row: int
) -> None:
    """Append to the shard the new rows, starting at position ``first_row``,
    that fall inside its span ``part`` (possibly none)."""
    lo = max(part.start, first_row)
    hi = min(part.stop, first_row + k_new.shape[1])
    if hi > lo:
        shard.append(
            k_new[:, lo - first_row : hi - first_row], v_new[:, lo - first_row : hi - first_row]
        )


def _attend_gathered(
    attention, part: Partition, shard: LayerKVCache, first_row: int, ctx: WorkerContext,
    workspace: Workspace, q: np.ndarray, k_new: np.ndarray, v_new: np.ndarray,
) -> np.ndarray:
    """The gathered ``attend`` hook of the rows starting at ``first_row``:
    append them to the rank's shard where they fall in its span, then
    all-gather every rank's shard view and attend.  The all-gather is the
    barrier: no rank reads a peer's shard before the peer appended its rows.

    The rank-order concatenation is value-identical to a full single-device
    cache append followed by a read (a pure row copy), and everything after
    it is ``attend_cached`` — the single-device op sequence.
    """
    _append_span(part, shard, k_new, v_new, first_row)
    heads, _, head_dim = k_new.shape

    def gathered(*_new_rows):
        k, v = shard_kv_views(shard, heads, head_dim, k_new.dtype)
        return ctx.all_gather(k, axis=1), ctx.all_gather(v, axis=1)

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
    part: Partition, shard: LayerKVCache, offset: int, ctx: WorkerContext,
    stats_dtype: np.dtype, q: np.ndarray, k_new: np.ndarray, v_new: np.ndarray,
) -> np.ndarray:
    """The distributed ``attend`` hook over the rank's shard of one layer.

    Appends the new K/V rows that fall in the rank's span, computes partial
    attention over the shard's *local* rows only, and gathers the packed
    ``(o, m, l)`` stats — ``(K, H, P, F_H+2)`` in rank order — before the
    deterministic rank-ordered log-sum-exp combine.  Every rank combines
    the same gathered stats in the same order, so all ranks produce the
    bit-identical layer output; only the comparison against a
    *single-device* decode needs a tolerance.
    """
    _append_span(part, shard, k_new, v_new, offset)
    # stats may round to float16 on the wire; they are *not* re-read on
    # later steps (unlike cache rows), so the error cannot compound — it is
    # a one-shot rounding covered by the closeness tolerance.  The float32
    # upcast happens after the gather so the combine arithmetic is identical
    # on every rank.
    wire = _local_stats_packed(q, part, shard, offset).astype(stats_dtype, copy=False)[None]
    gathered = ctx.all_gather(wire, axis=0).astype(np.float32)
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
    shards: Sequence[LayerKVCache],
    ctx: WorkerContext,
    new_ids: Sequence[int],
    offset: int,
    stats_dtype: np.dtype,
    workspace: Workspace,
    attention: str = "gathered",
) -> tuple[int, np.ndarray]:
    """One decode step on rank ``ctx.rank``; returns the greedy token and
    the rank's vocab shard of the last new position's LM-head logits
    (:func:`decode_head_parts`; concatenated in rank order, the ranks'
    shards are the full logits row).

    ``shards[i]`` is the rank's KV shard of layer ``i`` (its span of
    ``layer_parts[i]``) and ``workspace`` its scratch; every collective is
    ``ctx.all_gather``.

    *Layers.*  On a span-partitioned step (:func:`decode_step_slices`) the
    rank runs only the new rows inside its span; otherwise it runs all of
    them, and appends those inside its span.  A partitioned step, and any
    step under ``attention="gathered"``, all-gathers the full K/V from every
    rank's shard: either shape is op-for-op ``generate_cached``'s rows —
    bit-identical to the single device.  On an all-rows step under
    ``attention="distributed"`` the shard is attended locally and the ranks
    all-gather the packed log-sum-exp combine stats (in ``stats_dtype`` on
    the wire) — exact up to float re-association (INTERNALS §14).  The
    rank's layers are one ``decode.layers`` span: the ``rows`` it ran, the
    step's ``added`` rows and its ``exchange`` (``kv`` or ``stats``).

    *Head.*  After a partitioned step only the last row's owner holds its
    hidden state, so one ``(1, F)`` gather hands it to everyone.  Each rank
    then multiplies it against its own vocab rows only, and the ranks
    exchange one packed ``(max logit, index)`` pair each — ``O(K)`` wire
    bytes, not ``O(vocab)``; the first maximum in rank order is
    ``np.argmax``'s lowest-index rule exactly.
    """
    _check_attention(attention)
    rank = ctx.rank
    ids = np.asarray(new_ids, dtype=np.int64)
    total = offset + len(ids)
    slices = decode_step_slices(model.config, layer_parts, offset, len(ids))
    exchange = _exchange(slices, attention)
    rows = Partition(offset, total) if slices is None else slices[rank]
    x = model.embeddings.word(ids[rows.start - offset : rows.stop - offset])
    x = x + model.embeddings.position(np.arange(rows.start, rows.stop))
    with current_tracer().span(
        "decode.layers", cat="systems", kind="compute", track=f"rank {rank}", device=rank,
        rows=rows.length, added=len(ids), exchange=exchange,
    ):
        for layer, parts, shard in zip(model.layers, layer_parts, shards):
            if exchange == "kv":
                attend = partial(
                    _attend_gathered, layer.attention, parts[rank], shard, rows.start, ctx,
                    workspace,
                )
            else:
                attend = partial(_attend_sharded, parts[rank], shard, offset, ctx, stats_dtype)
            x = run_steps(layer_steps(layer, x, attend))

    if slices is not None:  # zero rows from everyone but the owner of the last new position
        x = ctx.all_gather(x[-1:] if rows.stop == total else x[:0], axis=0)
    hidden = model.ln_f(x[-1])
    head_parts = decode_head_parts(layer_parts[-1], model.config.vocab_size)
    part = head_parts[rank]
    with current_tracer().span(
        "decode.head", cat="systems", kind="compute", track=f"rank {rank}", device=rank,
        vocab_rows=part.length, pair_bytes=(len(head_parts) - 1) * _PAIR_BYTES,
    ):
        logits = model.lm_head([hidden], part.start, part.stop)[0]
    return _first_max(ctx.all_gather(_best_pair(logits, part.start), axis=0)), logits


def _rank_stepper(system, ctx: WorkerContext, capacity: int, attention: str):
    """Rank ``ctx.rank``'s side of one request — spans fixed over
    ``capacity``, one fresh KV shard per layer sized to the rank's span, a
    workspace and the stats wire dtype — bound to the step kernel as
    ``step(new_ids, offset) -> (token, vocab-shard logits)``."""
    layer_parts = decode_layer_spans(system, capacity)
    shards = [LayerKVCache(capacity=parts[ctx.rank].length or None) for parts in layer_parts]
    return partial(
        sharded_decode_step, system.model, layer_parts, shards, ctx,
        stats_dtype=decode_stats_wire(system.wire_dtype)[0], workspace=Workspace(),
        attention=attention,
    )


def _decode_slot(session: DecodeSession, model, prompt_ids, max_new_tokens: int) -> np.ndarray:
    """One request on an open session, the driver both of its one-request
    clients share: slot 0 begun at the request's capacity, then
    ``generate_cached``'s greedy loop over :meth:`DecodeSession.forward`;
    returns the ids, prompt included."""
    ids = [int(token) for token in np.asarray(prompt_ids)]
    session.begin(0, decode_capacity(model, len(ids), max_new_tokens))
    greedy_loop(partial(session.forward, 0), ids, max_new_tokens, model.config.max_positions)
    return np.asarray(ids, dtype=np.int64)


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
    options = {} if timeout is None else {"timeout": timeout}
    with DecodeSession(system, runtime=runtime, attention=attention, **options) as session:
        ids = _decode_slot(session, system.model, prompt_ids, max_new_tokens)
    return ids, session.close()


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


def pass_seconds(
    config, device: DeviceSpec, flights: Sequence[tuple[int, int, bool]]
) -> float:
    """Price one engine pass on one device — the serving counterpart of
    :func:`decode_step_pricing`, on the same ``DeviceSpec.compute_seconds``.

    ``flights`` are the pass's ``(new_positions, cache_len_before,
    all_positions)``, grouped into row sets as
    ``GPT2Model.argmax_cached_rows`` runs them (``models.cache.row_sets``):
    the prefills ``models.cache.packed_flights`` admits share one row set,
    every other flight is its own.  Each (layer, row set) pair is one call
    over its flights' ``decode_layer_flops`` — a prefill's rows against its
    cache, a verify flight's each as the single-position step at its own
    position — and the head one call over the ``F·V`` products of every
    wanted row (all of a verify flight's, else the last), so a call's
    ``overhead_seconds`` is paid once however many rows share it.
    """
    f = config.hidden_size

    def flops(new: int, cached: int, verify: bool) -> int:
        steps = [(1, cached + row) for row in range(new)] if verify else [(new, cached)]
        return sum(
            decode_layer_flops(
                before + rows, f, config.head_dim, config.num_heads, config.ffn_dim,
                new_positions=rows,
            )
            for rows, before in steps
        )

    sets = row_sets(config, [(new, verify) for new, _, verify in flights])
    layer_seconds = sum(
        device.compute_seconds(sum(flops(*flights[i]) for i in row_set)) for row_set in sets
    )
    wanted = sum(new if all_positions else 1 for new, _, all_positions in flights)
    return config.num_layers * layer_seconds + device.compute_seconds(
        f * config.vocab_size * wanted
    )


def decode_timeline(
    config,
    prompt_len: int,
    max_new_tokens: int,
    cluster: ClusterSpec,
    scheme: PartitionScheme | LayerSchedule | None = None,
    attention: str = "gathered",
    stats_itemsize: int = 4,
) -> tuple[LatencyBreakdown, dict]:
    """The per-token latency timeline of one sharded decode on ``cluster`` —
    shapes only, so it needs no weights.

    The single source of the decode phase sequence: :func:`run_decode`
    attaches it to the session's tokens.  ``scheme`` (a
    :class:`PartitionScheme`, a :class:`LayerSchedule`, or None for the even
    1/K split) draws every layer's spans over the request's full capacity,
    as :func:`decode_layer_spans` does.  Replays the greedy loop over lengths
    (:func:`decode_step_totals`) and prices every step through
    :func:`decode_step_pricing`; each step's chunk sizes are the spans
    clipped to the filled prefix.  Returns the phase breakdown and a dict of
    three per-step lists: ``per_step_seconds`` (compute + comm),
    ``per_step_comm_bytes`` (the wire bytes one device receives in the
    layers, ``sum(chunks) - max(chunks)`` per collective: the K/V gathers or
    the stats gathers) and ``per_step_head_bytes`` (the head exchange's own
    term, ``sum(chunks) - min(chunks)``: what a rank other than the last
    row's owner receives).  Each step's comm phase is named by the exchange
    it used (:func:`_exchange`).
    """
    sim = ClusterSim(cluster)
    capacity = min(prompt_len + max_new_tokens, config.max_positions)
    layer_parts = LayerSchedule.of(scheme, cluster.num_devices).layer_parts(
        capacity, config.num_layers
    )
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
    return latency, {
        "per_step_seconds": per_step_seconds,
        "per_step_comm_bytes": per_step_bytes,
        "per_step_head_bytes": per_step_head_bytes,
    }


def run_decode(
    system, prompt_ids, max_new_tokens: int = 8, attention: str = "gathered"
) -> InferenceResult:
    """Sharded decode on a :class:`DecodeSession`, with a simulated
    per-token timeline.

    The tokens come from the session's ranks, exactly as
    :func:`generate_distributed`'s do (they share one driver); the ranks
    then reply with their vocab shards of the last step's logits — the
    step that produced the last token, over the first
    ``meta["final_logits_prefix"]`` ids — which ``meta["final_logits"]``
    concatenates in rank order (both None when no step ran).  The latency
    and every byte field of ``meta`` are :func:`decode_timeline` over the
    request's shapes.
    """
    model = system.model
    config = model.config
    prompt_len = len(np.asarray(prompt_ids))
    with DecodeSession(system, attention=attention) as session:
        output = _decode_slot(session, model, prompt_ids, max_new_tokens)
        final_logits = session.logits(0) if len(output) > prompt_len else None
    capacity = decode_capacity(model, prompt_len, max_new_tokens)
    schedule = system.schedule(capacity)
    layer_parts = schedule.layer_parts(capacity, config.num_layers)

    latency, steps = decode_timeline(
        config, prompt_len, max_new_tokens, system.cluster, scheme=schedule,
        attention=attention, stats_itemsize=decode_stats_wire(system.wire_dtype)[1],
    )
    per_token_seconds = steps["per_step_seconds"]
    per_step_comm_bytes = steps["per_step_comm_bytes"]
    totals = decode_step_totals(prompt_len, max_new_tokens, config.max_positions)
    addeds = [prompt_len] + [1] * (len(totals) - 1)
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
        "devices": system.k,
        "decode_attention": attention,
        "prompt_tokens": prompt_len,
        "tokens": len(output),
        "capacity": capacity,
        "steps": len(per_token_seconds),
        "per_token_seconds": per_token_seconds,
        "kv_gather_bytes_per_device": kv_gather_bytes,
        "combine_bytes_per_device": sum(per_step_comm_bytes) - kv_gather_bytes,
        "per_step_comm_bytes_per_device": per_step_comm_bytes,
        "head_bytes_per_device": sum(steps["per_step_head_bytes"]),
        "cached_order": "eq3",
        "uncached_orders": uncached_orders,
        "shard_spans": [[part.start, part.stop] for part in layer_parts[0]],
        "final_logits": final_logits,
        "final_logits_prefix": totals[-1] if totals else None,
    }
    return InferenceResult(output=output, latency=latency, meta=meta)


def decode_step_totals(prompt_len: int, max_new_tokens: int, max_positions: int) -> list[int]:
    """Sequence lengths seen by each decode step — deterministic in shapes:
    :func:`~repro.models.gpt2.greedy_loop` (``generate_cached``'s control
    flow) over a stand-in step that records ``offset + len(new_ids)`` — the
    prompt's rows on the prefill, then the post-append length of each token
    step: one step per kept token, so none when no token fits under
    ``max_positions``."""
    totals: list[int] = []

    def step(new_ids, offset):
        totals.append(offset + len(new_ids))
        return 0

    greedy_loop(step, [0] * prompt_len, max_new_tokens, max_positions)
    return totals


def _decode_commands(system, attention: str, ctx: WorkerContext) -> dict:
    """A session rank's command table: one :func:`_rank_stepper` per slot,
    and a reference to each slot's last vocab-shard logits."""
    steppers: dict[int, Callable] = {}
    last_logits: dict[int, np.ndarray] = {}

    def begin(slot: int, capacity: int) -> None:
        steppers[slot] = _rank_stepper(system, ctx, capacity, attention)
        last_logits.pop(slot, None)

    def forward(slot: int, new_ids: list[int], offset: int) -> int:
        token, last_logits[slot] = steppers[slot](new_ids, offset)
        return token

    def logits(slot: int) -> np.ndarray:
        return last_logits[slot]

    def release(slot: int) -> None:
        steppers.pop(slot, None)
        last_logits.pop(slot, None)

    return {"begin": begin, "forward": forward, "logits": logits, "release": release}


class DecodeSession(RankService):
    """The resident K-rank decode service — a :class:`~repro.cluster.service.
    RankService` whose ranks run :func:`sharded_decode_step`, and the only
    runner of decode ranks (:func:`generate_distributed`, :func:`run_decode`
    and the engine's ``VoltageDecodeSequencer`` are its clients).

    The engine interleaves token steps of many requests, so a launch per
    request would pay runtime startup per token.  The session's ranks stay
    up across requests instead, and run four commands:

    - :meth:`begin` ``(slot, capacity)`` — allocate this rank's KV shards for
      the slot, spans fixed over ``capacity`` (re-beginning a slot simply
      replaces its shards, which is how preemption restarts work);
    - :meth:`forward` ``(slot, new_ids, offset)`` — run one position-sharded
      decode step (:func:`sharded_decode_step`) and reply with the next
      token id; the host asserts all ranks replied the same token — a
      per-step distributed consistency check;
    - :meth:`logits` ``(slot)`` — reply with the rank's vocab shard of the
      slot's last step's logits; the host concatenates them in rank order;
    - :meth:`release` ``(slot)`` — drop the slot's shards.

    Failure and shutdown are the service's: the first failed command breaks
    the session for good, and :meth:`close` raises what ended the ranks'
    run, or a shutdown that outlived ``timeout``.
    """

    def __init__(self, system, runtime=None, timeout: float = 60.0, attention: str = "gathered"):
        _check_attention(attention)
        super().__init__(
            partial(_decode_commands, system, attention), system.k, runtime=runtime,
            timeout=timeout, name="decode session",
        )

    def begin(self, slot: int, capacity: int) -> None:
        self.call("begin", slot, capacity)

    def forward(self, slot: int, new_ids: list[int], offset: int) -> int:
        values = self.call("forward", slot, [int(t) for t in new_ids], int(offset))
        first = values[0]
        for rank, value in enumerate(values):
            if value != first:
                raise AssertionError(
                    f"rank {rank} decoded token {value} where rank 0 decoded {first}"
                )
        return first

    def logits(self, slot: int) -> np.ndarray:
        """The full LM-head logits row of the slot's last :meth:`forward`
        (its last new position)."""
        return np.concatenate(self.call("logits", slot))

    def release(self, slot: int) -> None:
        self.call("release", slot)
