"""KV-cache incremental decoding for causal transformer layers.

The paper measures one full forward pass; serving autoregressive generation
naively re-runs that pass per token (O(T²) projections over a T-token
decode).  The standard fix is to cache each layer's K and V: a decode step
then projects only the *new* positions and attends them against the cached
keys/values — position-wise partitioning still applies to everything the
cache does not already cover.

Allocation behaviour (INTERNALS §9): the cache owns one
``(H, capacity, F_H)`` buffer per tensor, grown geometrically, so a T-token
decode performs O(T) element writes instead of the O(T²) copies of a
concatenate-per-append scheme.  ``append`` always copies the new positions
in and returns *views* of the cached prefix; callers that need the hidden
states to outlive the next ``append`` must copy.  Callers that know the
final sequence length up front should size the buffers before the first
append — a ``capacity`` hint (``generate_cached``) or :meth:`reserve`
(an engine slot, which reserves its request's power-of-two size class) —
so they are allocated exactly once.

Works for both normalisation placements; only causal layers may use a cache
(bidirectional layers would need future tokens that do not exist yet).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.orders import merge_heads, split_heads
from repro.models.layer import TransformerLayer
from repro.tensor import functional as F
from repro.tensor.blas import rows_matmul
from repro.tensor.workspace import Workspace

__all__ = [
    "LayerKVCache",
    "KVCache",
    "attend_cached",
    "attend_segments",
    "layer_steps",
    "layer_steps_cached",
    "lockstep",
    "run_steps",
    "SMALL_GEMM_FLOPS",
    "SMALL_GEMM_CELLS",
    "SMALL_GEMM_MIN_DEPTH",
    "same_weight_kernels",
    "packed_flights",
    "row_sets",
    "layer_forward_cached",
    "shard_kv_cache",
    "merge_kv_shards",
    "shard_kv_views",
]


class LayerKVCache:
    """One layer's cached key/value tensors, ``(H, T, F_H)`` each.

    ``capacity`` pre-sizes the backing buffers (in positions); without it the
    first append sizes them and later growth doubles, so appends stay
    amortised O(1) allocations either way.  ``allocations`` counts backing
    (re)allocations — ``tests/models/test_kv_cache.py`` pins it to 1 when a
    hint is given.
    """

    def __init__(self, capacity: int | None = None):
        self._k_buf: np.ndarray | None = None
        self._v_buf: np.ndarray | None = None
        self._length = 0
        self._capacity_hint = capacity
        self.allocations = 0

    @property
    def k(self) -> np.ndarray | None:
        """View of the cached keys, ``(H, length, F_H)``; None before first append."""
        return None if self._k_buf is None else self._k_buf[:, : self._length]

    @property
    def v(self) -> np.ndarray | None:
        """View of the cached values, ``(H, length, F_H)``; None before first append."""
        return None if self._v_buf is None else self._v_buf[:, : self._length]

    @property
    def length(self) -> int:
        return self._length

    @property
    def capacity(self) -> int:
        """Positions the backing buffers can hold without reallocating."""
        return 0 if self._k_buf is None else self._k_buf.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes held by the K and V backing buffers."""
        return 0 if self._k_buf is None else self._k_buf.nbytes + self._v_buf.nbytes

    def reserve(self, capacity: int) -> None:
        """Ensure room for ``capacity`` positions (allocates at most once).
        Before the first append it only raises the hint, so the first
        append — a prefill or a copied prefix — allocates at that size."""
        if self._k_buf is None:
            self._capacity_hint = max(capacity, self._capacity_hint or 0)
        elif self._k_buf.shape[1] < capacity:
            self._grow(capacity)

    def _grow(self, new_cap: int) -> None:
        k_buf = np.empty(
            (self._k_buf.shape[0], new_cap, self._k_buf.shape[2]), dtype=self._k_buf.dtype
        )
        v_buf = np.empty_like(k_buf)
        k_buf[:, : self._length] = self._k_buf[:, : self._length]
        v_buf[:, : self._length] = self._v_buf[:, : self._length]
        self._k_buf, self._v_buf = k_buf, v_buf
        self.allocations += 1

    def truncate(self, length: int) -> None:
        """Roll back to ``length`` cached positions without reallocating.

        The backing buffers (and their dtype) are kept, so a preempted or
        cancelled decode can release its positions and the next decode
        appends into the same memory — ``truncate(0)`` is how the engine's
        slot pool recycles a cache.  Only shrinking is allowed: positions
        beyond the current length do not exist and cannot be restored.
        """
        length = int(length)
        if not 0 <= length <= self._length:
            raise ValueError(
                f"truncate length must be in [0, {self._length}], got {length}"
            )
        self._length = length

    def append(self, k_new: np.ndarray, v_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Copy new positions into the cache; returns views of the full K and V.

        The returned views are valid until the next ``append`` (growth may
        rebind the backing buffers).
        """
        if k_new.shape != v_new.shape:
            raise ValueError(f"K/V shapes disagree: {k_new.shape} vs {v_new.shape}")
        if k_new.dtype != v_new.dtype:
            raise ValueError(f"K/V dtypes disagree: {k_new.dtype} vs {v_new.dtype}")
        t = k_new.shape[1]
        if self._k_buf is None:
            cap = max(self._length + t, self._capacity_hint or 0)
            self._k_buf = np.empty((k_new.shape[0], cap, k_new.shape[2]), dtype=k_new.dtype)
            self._v_buf = np.empty_like(self._k_buf)
            self.allocations += 1
        else:
            if (
                k_new.shape[0] != self._k_buf.shape[0]
                or k_new.shape[2] != self._k_buf.shape[2]
            ):
                raise ValueError(
                    f"cache geometry mismatch: cached {self.k.shape}, new {k_new.shape}"
                )
            if k_new.dtype != self._k_buf.dtype:
                raise ValueError(
                    f"cache dtype mismatch: cached {self._k_buf.dtype}, new {k_new.dtype}"
                )
            if self._length + t > self._k_buf.shape[1]:
                self._grow(max(self._length + t, 2 * self._k_buf.shape[1]))
        self._k_buf[:, self._length : self._length + t] = k_new
        self._v_buf[:, self._length : self._length + t] = v_new
        self._length += t
        return self.k, self.v


@dataclass
class KVCache:
    """Whole-model cache: one :class:`LayerKVCache` per transformer layer."""

    layers: list[LayerKVCache] = field(default_factory=list)

    @classmethod
    def empty(cls, num_layers: int, capacity: int | None = None) -> "KVCache":
        """``capacity`` (final sequence length, if known) pre-sizes every layer."""
        return cls(layers=[LayerKVCache(capacity=capacity) for _ in range(num_layers)])

    @property
    def length(self) -> int:
        """Positions already cached (uniform across layers by construction)."""
        return self.layers[0].length if self.layers else 0

    def truncate(self, length: int) -> None:
        """Roll back every layer to ``length`` positions (buffers kept)."""
        for layer in self.layers:
            layer.truncate(length)


def _linear_request(linear, x: np.ndarray) -> tuple:
    """The product request (see :func:`layer_steps`) of ``linear(x)``."""
    return linear.weight.data, linear.bias.data if linear.bias else None, x


def _split_qkv(attention, qkv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fused projection's per-head views ``(q, k_new, v_new)``, each
    ``(H, t, F_H)``."""
    heads = attention.num_heads
    width = heads * attention.head_dim
    return (
        split_heads(qkv[:, :width], heads),
        split_heads(qkv[:, width : 2 * width], heads),
        split_heads(qkv[:, 2 * width :], heads),
    )


def attend_cached(
    attention,
    extend_kv,
    offset: int,
    causal: bool,
    workspace: Workspace | None,
    q: np.ndarray,
    k_new: np.ndarray,
    v_new: np.ndarray,
) -> np.ndarray:
    """Core cached attention: extend the KV state, then attend ``q`` to it.

    ``extend_kv(k_new, v_new) -> (k_all, v_all)`` supplies how the new
    positions join the cached history — ``LayerKVCache.append`` for the
    single-device path, or a shard-append-then-all-gather closure for the
    position-sharded distributed decode.  Everything downstream of the
    returned ``(k_all, v_all)`` is the exact single-device op sequence, so
    any extension strategy that reconstructs the same K/V *values* yields
    bit-identical attention output (buffer identity/strides never change
    matmul results).

    Returns the per-head ``(H, t, F_H)`` attended tensor (before the head
    merge and output projection).  The score matrix and the attended tensor
    live in the workspace when one is supplied, so the result is valid until
    the workspace's next ``attended`` request.
    """
    heads, t, head_dim = q.shape
    dt = q.dtype
    k_all, v_all = extend_kv(k_new, v_new)
    total = k_all.shape[1]

    # math.sqrt (a weak Python float under NEP 50) keeps float32 hidden
    # states float32; np.sqrt(int) is a strong float64 scalar that silently
    # upcast every downstream tensor — including the LM-head matmul.
    scale = math.sqrt(attention.head_dim)
    if workspace is not None:
        scores = np.matmul(
            q, k_all.transpose(0, 2, 1), out=workspace.take("scores", (heads, t, total), dt)
        )
    else:
        scores = q @ k_all.transpose(0, 2, 1)
    np.divide(scores, scale, out=scores)
    if causal:
        scores[:, F.causal_mask(t, total, offset=offset)] = -1e30
    F.softmax(scores, axis=-1, out=scores)
    if workspace is not None:
        return np.matmul(
            scores, v_all, out=workspace.take("attended", (heads, t, head_dim), dt)
        )
    return scores @ v_all


def attend_segments(attends, lengths, q: np.ndarray, k_new: np.ndarray, v_new: np.ndarray):
    """The ``attend`` hook of a row set of several *segments*: the new rows
    of several flights — or, one row each, of a verify flight — stacked
    along the position axis, ``lengths[i]`` of them belonging to segment
    ``i``.  Segment ``i`` of ``q`` / ``k_new`` / ``v_new`` goes, in order,
    to ``attends[i]`` — its own hook over its own cache and offset, which
    sees only what that cache holds (for a verify row: the rows before it),
    issuing the calls and shapes it would issue alone (a segment is a basic
    slice of the stacked projection, with the row stride the lone
    projection has) — and the attended contexts are stacked back in order.
    """
    heads, _, head_dim = q.shape
    attended = np.empty((heads, sum(lengths), head_dim), dtype=q.dtype)
    start = 0
    for attend, length in zip(attends, lengths):
        stop = start + length
        # copied out at once: the hook's result may be scratch the next
        # segment's hook reuses
        attended[:, start:stop] = attend(
            q[:, start:stop], k_new[:, start:stop], v_new[:, start:stop]
        )
        start = stop
    return attended


def layer_steps(layer: TransformerLayer, x_new: np.ndarray, attend):
    """The cached causal layer, spelled once — as a generator that pauses at
    each of the layer's four weight matrices (fused QKV, W_O, FC1, FC2) on a
    *product request*: ``y = yield (weight, bias, x)`` asks its driver for
    ``x @ weight + bias`` (``bias`` may be None) as a fresh array.  Its
    return value is the layer output ``(t, F)``.

    ``attend(q, k_new, v_new) -> (H, t, F_H)`` receives the new positions'
    per-head projections and must return the *normalised* attended context
    for those positions — it owns cache extension, score scaling, causal
    masking and the softmax (no weights, so it runs in the QKV segment).

    ``x_new`` may stack the new rows of several flights (a *packed* row
    set, :func:`packed_flights`): the weight products and everything
    position-wise run once over all of them, and ``attend`` keeps the
    flights apart (:func:`attend_segments`).

    :func:`lockstep` is the driver (:func:`run_steps` for a lone
    generator): it advances every row set of a pass — the packed prefills,
    each decode or verify flight — to the same weight matrix and serves
    their requests together, so the matrix is streamed from memory once per
    pass, not once per flight.  A prefill's products are the BLAS calls it
    would issue alone — the same ``np.matmul``, with more rows through the
    same kernel for a packed member — and the single rows sharing a matrix
    (every row of a verify flight is one) go through a kernel in the lone
    GEMV's summation order (:func:`repro.tensor.blas.rows_matmul`), so
    sharing changes *when* and *from which cache level* an op runs, never
    its result.

    No workspace view is live across a weight pause, so the flights of a
    pass may share one :class:`Workspace`.
    """
    if not layer.config.is_causal:
        raise ValueError("KV caching requires a causal layer")
    attention, ffn = layer.attention, layer.ffn
    post = layer.config.norm_style == "post"

    attn_input = x_new if post else layer.ln1(x_new)
    qkv = yield (*attention.fused_qkv(), attn_input)
    attended = attend(*_split_qkv(attention, qkv))
    projected = yield _linear_request(attention.output, merge_heads(attended))
    y = layer.ln1(projected + x_new) if post else x_new + projected
    ffn_input = y if post else layer.ln2(y)
    expanded = ffn.activate((yield _linear_request(ffn.fc1, ffn_input)))
    out = y + (yield _linear_request(ffn.fc2, expanded))
    return layer.ln2(out) if post else out


def _serve(requests: dict, row_wise) -> dict:
    """One round of :func:`lockstep`: ``requests[i]`` is generator ``i``'s
    product request ``(weight, bias, x)`` or None (a bare pause);
    returns ``x @ weight + bias`` (or None) under the same keys.

    Requests against the same matrix are served together.  Every single row
    — each row of a ``row_wise`` generator's request, and every 1-row
    request — goes through :func:`rows_matmul` (one stream of the matrix for
    all of them, each bit-equal to its own ``np.matmul``); a multi-row
    request of any other generator, and a single row nobody shares the
    matrix with, is the literal ``np.matmul``.
    """
    products = dict.fromkeys(requests)
    by_weight: dict[int, list] = {}
    for index, request in requests.items():
        if request is not None:
            by_weight.setdefault(id(request[0]), []).append(index)
    for members in by_weight.values():
        weight = requests[members[0]][0]
        singles = [i for i in members if i in row_wise or requests[i][2].shape[0] == 1]
        rows = [row[None] for index in singles for row in requests[index][2]]
        if len(rows) >= 2:
            row_products = iter(rows_matmul(rows, weight))
            for index in singles:
                mine = [next(row_products) for _ in requests[index][2]]
                products[index] = mine[0] if len(mine) == 1 else np.concatenate(mine)
        for index in members:
            _, bias, x = requests[index]
            if products[index] is None:
                products[index] = np.matmul(x, weight)
            if bias is not None:
                np.add(products[index], bias, out=products[index])
    return products


def lockstep(rows, row_wise=frozenset()) -> list:
    """Drive step generators round-robin — each advances one pause per turn,
    then the round's product requests are served together (:func:`_serve`)
    and each generator resumes with its own — and return their return
    values in order.  The generators whose indices are in ``row_wise`` have
    every row of every product served as a single row."""
    results = {}
    live = dict(enumerate(rows))
    products = dict.fromkeys(live)
    while live:
        requests = {}
        for index, steps in list(live.items()):
            try:
                requests[index] = steps.send(products[index])
            except StopIteration as stop:
                results[index] = stop.value
                del live[index]
        products = _serve(requests, row_wise)
    return [results[index] for index in sorted(results)]


def run_steps(steps):
    """Drive one step generator straight through: the lockstep of one row."""
    (result,) = lockstep([steps])
    return result


#: OpenBLAS's small-matrix SGEMM cutoffs (``sgemm_small_kernel_permit``,
#: SkylakeX) — the one home of these facts, read by the bit-equality rules
#: (:func:`same_weight_kernels`, ``systems.decode._same_gemm_kernels``); the
#: argmax head no longer does (its screen is a C walk of the table, not a
#: BLAS product).  A product of at most ``SMALL_GEMM_FLOPS`` ``M·N·K``
#: multiply-adds takes a small-matrix kernel, which reads its operands in
#: place, instead of the blocked one, which first packs them.  With a
#: *transposed* operand (``Q·Kᵀ`` scores) it does so only up to
#: ``SMALL_GEMM_CELLS`` ``M·N`` output cells and from a depth ``K`` of
#: ``SMALL_GEMM_MIN_DEPTH``.
SMALL_GEMM_FLOPS = 100 * 100 * 100
SMALL_GEMM_CELLS = 1200
SMALL_GEMM_MIN_DEPTH = 32


def same_weight_kernels(config, rows: int, all_rows: int) -> bool:
    """Whether BLAS multiplies ``rows`` rows against a layer's weight
    matrices with the kernels — so the summation order — it uses for
    ``all_rows`` rows, which is what makes a row's products bit-equal
    whether it is multiplied among the ``rows`` or among the ``all_rows``:
    a flight alone or stacked in a packed row set (:func:`packed_flights`),
    a rank's span of a partitioned step or the whole step
    (:mod:`repro.systems.decode`, which adds the attention products' half
    of the rule).

    Measured on this repo's OpenBLAS and asserted by the tests (INTERNALS
    §10/§13).  A 1-row product is forwarded to GEMV.  A product of at most
    :data:`SMALL_GEMM_FLOPS` multiply-adds takes a small-matrix kernel,
    which agrees with the blocked kernel only for some shapes — so both row
    counts must fall on the same side of it for each of fused QKV, W_O and
    the FFN's two matrices (FC1 and FC2 are one ``M·N·K``).
    """
    if rows == all_rows:
        return True  # the very same call
    if rows < 2:
        return False
    f, ffn = config.hidden_size, config.ffn_dim
    return all(
        (rows * cells <= SMALL_GEMM_FLOPS) == (all_rows * cells <= SMALL_GEMM_FLOPS)
        for cells in (3 * f * f, f * f, f * ffn)
    )


def packed_flights(config, lengths: Sequence[int]) -> list[int]:
    """Which of the prefills of one pass — prefill ``i`` bringing
    ``lengths[i]`` new rows — run *packed*: their rows stacked into one
    ``(Σt, F)`` row set, so each weight matrix is one GEMM for all of them
    (their indices, in order; fewer than two means nobody shares).  Decided
    from shapes alone.

    Stacking must not change a bit of any member, so a member's rows must
    multiply with the kernels the stacked total gets
    (:func:`same_weight_kernels` — which excludes single rows, whose
    products are GEMVs).  Members that would not are dropped — they run as
    their own row sets — and the smaller total is tried again.  At GPT-2
    width every ``t >= 2`` product is on the blocked side, so every
    multi-row prefill packs.
    """
    members = [index for index, rows in enumerate(lengths) if rows >= 2]
    while True:
        total = sum(lengths[index] for index in members)
        kept = [i for i in members if same_weight_kernels(config, lengths[i], total)]
        if kept == members:
            return members
        members = kept


def row_sets(config, flights: Sequence[tuple[int, bool]]) -> list[list[int]]:
    """The row sets of one pass over ``flights`` — ``(new_rows, verify)``
    each, in order — as lists of flight indices: the prefills
    :func:`packed_flights` admits stacked into one set, then every other
    flight alone.  A *verify* flight (an ``all_positions`` one) never packs:
    each of its rows is a single row, one decode step
    (:func:`layer_steps_cached`'s ``row_by_row``)."""
    prefills = [index for index, (_, verify) in enumerate(flights) if not verify]
    packed = [prefills[i] for i in packed_flights(config, [flights[i][0] for i in prefills])]
    return [packed] * bool(packed) + [[i] for i in range(len(flights)) if i not in packed]


def layer_steps_cached(layer: TransformerLayer, x_new: np.ndarray, segments, row_by_row=False):
    """:func:`layer_steps` over single-device caches — of one *row set*:
    ``x_new`` stacks the new rows of one or more flights and
    ``segments[i] = (rows, cache, workspace)`` says whose they are.  The
    layer's weight products run once over all the stacked rows; each
    flight's rows are appended to and attended against its own
    :class:`LayerKVCache` with its own scratch (:func:`attend_segments`).

    With ``row_by_row`` each new row is attended as a decode step of its
    own, as ``generate_cached``'s lone step attends it: appended, then
    attended against the cache that ends at its own position."""
    attends, lengths = [], []
    for rows, cache, scratch in segments:
        for start, length in [(row, 1) for row in range(rows)] if row_by_row else [(0, rows)]:
            attends.append(partial(
                attend_cached, layer.attention, cache.append, cache.length + start, True, scratch
            ))
            lengths.append(length)
    return layer_steps(layer, x_new, partial(attend_segments, attends, lengths))


def layer_forward_cached(
    layer: TransformerLayer,
    x_new: np.ndarray,
    cache: LayerKVCache,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """One causal layer over the ``t`` newest positions, reusing the cache.

    ``x_new`` is ``(t, F)`` — the hidden states of positions
    ``[cache.length, cache.length + t)``.  Returns the layer output for
    exactly those positions and extends the cache in place.  Equivalent to
    ``layer.forward(full_x)[-t:]`` (asserted by the tests), at
    O(t·F²  + t·T·F) cost instead of O(T·F² + T²·F).

    ``workspace`` (optional, shared across layers and decode steps) backs
    the attention scores and context, so a step allocates only its weight
    products and ``(t, F)`` outputs.
    """
    segments = [(x_new.shape[0], cache, workspace)]
    return run_steps(layer_steps_cached(layer, x_new, segments))


# ---------------------------------------------------------------------------
# Position shards: split / view / merge one layer's cache across ranks
# ---------------------------------------------------------------------------


def shard_kv_cache(cache: LayerKVCache, parts) -> list[LayerKVCache]:
    """Split a populated cache into per-rank position shards (rows copied).

    ``parts`` are :class:`~repro.core.partition.Partition` spans over the
    cache *capacity* (they may extend past ``cache.length``; a shard owns
    its span's intersection with the cached prefix, which can be empty).
    Each shard is an independent :class:`LayerKVCache` pre-sized to its
    span, so subsequent appends for positions inside the span never
    reallocate.
    """
    shards: list[LayerKVCache] = []
    for part in parts:
        shard = LayerKVCache(capacity=part.length or None)
        lo, hi = max(part.start, 0), min(part.stop, cache.length)
        if hi > lo:
            shard.append(cache.k[:, lo:hi], cache.v[:, lo:hi])
        shards.append(shard)
    return shards


def shard_kv_views(
    shard: LayerKVCache, heads: int, head_dim: int, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """The shard's ``(H, length, F_H)`` K/V views, zero-row arrays if empty.

    An empty shard (K > N leaves trailing ranks without positions; any rank
    before its span fills) has no backing buffers yet, so its ``k``/``v``
    properties are None — collectives need a real zero-length array of the
    right geometry instead.
    """
    if shard.length == 0 or shard.k is None:
        empty = np.empty((heads, 0, head_dim), dtype=dtype)
        return empty, empty
    return shard.k, shard.v


def merge_kv_shards(shards) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate rank shards (in rank order) back into full ``(k, v)``.

    The exact inverse of :func:`shard_kv_cache` over contiguous, ordered
    spans: concatenation is a pure row copy, so the merged arrays are
    bit-identical to the unsharded cache's views for any dtype.
    """
    populated = [s for s in shards if s.length]
    if not populated:
        raise ValueError("cannot merge shards holding no cached positions")
    k = np.concatenate([s.k for s in populated], axis=1)
    v = np.concatenate([s.v for s in populated], axis=1)
    return k, v

