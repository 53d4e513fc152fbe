"""Allocation-aware perf-regression suite (``repro.bench perf``).

Times three pinned workloads with warmup/repeat/median methodology and
``tracemalloc`` peak tracking, and emits ``BENCH_perf.json`` so every PR has
a perf trajectory:

- ``gpt2_cached_decode`` — greedy 64-token KV-cached decode on a scaled
  GPT-2 (the hot path this repo optimises), plus a pinned **legacy**
  re-implementation of the pre-optimisation path (concatenate-per-append
  cache, three separate Q/K/V projections, the ``np.sqrt`` float64 upcast)
  so the speedup ratio is computed *in-run* and therefore host-independent;
- ``bert_single_pass`` — one full forward over a BERT-Large prefix, the
  paper's actual measured workload;
- ``voltage_threaded_layer`` — Algorithm 2 on 4 real threaded workers,
  exercising the buffer-reusing collectives;
- ``voltage_runtime_threaded`` / ``voltage_runtime_process`` — the same
  deployment on the thread backend vs one OS process per rank over loopback
  TCP sockets; the gate checks the deterministic socket byte count, not the
  host-dependent wall ratio.
- ``voltage_decode_single`` / ``voltage_decode_distributed`` — KV-cached
  greedy decode on one device vs position-sharded across 2 threaded ranks,
  bit-identity asserted before timing; the gate checks the deterministic
  per-device KV-shard all-gather byte count.
- ``voltage_decode_gathered_attn`` / ``voltage_decode_distributed_attn`` —
  the same sharded decode at long context (t >> F_H) with the per-step KV
  all-gather vs local-shard attention + log-sum-exp combine; the gate
  checks the exact combine byte count and the shape of the per-step wire
  profile (flat for distributed, growing for gathered).

Regression gating (``--check``) compares the in-run
``cached_decode_speedup_vs_legacy`` ratio against the committed baseline's
ratio rather than absolute seconds — CI runners and laptops differ in clock
speed, but the optimised/legacy ratio on the *same* host is stable.

The report file groups one payload per mode (``full``/``quick``) under
``modes`` and re-emitting one mode preserves the other, so a single
committed ``BENCH_perf.json`` serves both the local full suite and the CI
quick lane.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.orders import merge_heads, split_heads
from repro.tensor import functional as F

__all__ = ["SCHEMA", "run_perf_suite", "emit_report", "check_regression"]

SCHEMA = "repro-bench-perf/v1"
REGRESSION_FACTOR = 2.0  # CI fails when the speedup ratio halves


# -- legacy (pre-optimisation) cached decode, pinned as the in-run reference --


class _LegacyLayerKVCache:
    """The pre-optimisation cache: re-concatenates the history per append."""

    def __init__(self) -> None:
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None

    @property
    def length(self) -> int:
        return 0 if self.k is None else self.k.shape[1]

    def append(self, k_new: np.ndarray, v_new: np.ndarray):
        if self.k is None:
            self.k, self.v = k_new, v_new
        else:
            self.k = np.concatenate([self.k, k_new], axis=1)
            self.v = np.concatenate([self.v, v_new], axis=1)
        return self.k, self.v


def _legacy_layer_forward_cached(layer, x_new, cache):
    """Pre-optimisation hot path: three skinny projections, per-op
    allocations, and the ``np.sqrt(int)`` strong scalar that upcast the
    whole downstream computation to float64."""
    attention = layer.attention
    offset = cache.length
    t = x_new.shape[0]
    attn_input = x_new if layer.config.norm_style == "post" else layer.ln1(x_new)
    q = split_heads(attention.query(attn_input), attention.num_heads)
    k_new = split_heads(attention.key(attn_input), attention.num_heads)
    v_new = split_heads(attention.value(attn_input), attention.num_heads)
    k_all, v_all = cache.append(k_new, v_new)
    scores = q @ k_all.transpose(0, 2, 1) / np.sqrt(attention.head_dim)
    mask = F.causal_mask(t, k_all.shape[1], offset=offset)
    scores = np.where(mask, -1e30, scores)
    attended = merge_heads(F.softmax(scores, axis=-1) @ v_all)
    projected = attention.output(attended)
    if layer.config.norm_style == "post":
        y = layer.ln1(projected + x_new)
        return layer.ln2(y + layer.ffn(y))
    y = x_new + projected
    return y + layer.ffn(layer.ln2(y))


def _legacy_generate_cached(model, prompt_ids, max_new_tokens):
    """Pre-optimisation ``GPT2Model.generate_cached`` (same greedy loop)."""
    ids = list(np.asarray(prompt_ids))
    caches = [_LegacyLayerKVCache() for _ in range(model.num_layers)]

    def step(new_ids, offset):
        positions = np.arange(offset, offset + len(new_ids))
        x = model.embeddings.word(np.asarray(new_ids, dtype=np.int64))
        x = x + model.embeddings.position(positions)
        for layer, cache in zip(model.layers, caches):
            x = _legacy_layer_forward_cached(layer, x, cache)
        logits = model.ln_f(x[-1]) @ model.embeddings.word.weight.data.T
        return int(np.argmax(logits))

    next_id = step(ids, 0)
    for _ in range(max_new_tokens):
        if len(ids) >= model.config.max_positions:
            break
        ids.append(next_id)
        if len(ids) >= model.config.max_positions:
            break
        next_id = step([ids[-1]], len(ids) - 1)
    return np.asarray(ids, dtype=np.int64)


# -- measurement primitives ---------------------------------------------------


def _time_samples(fn, repeats: int, warmup: int) -> list[float]:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _tracemalloc_peak(fn) -> int:
    """Peak traced allocation of one call (run separately from the timing
    passes — tracing skews wall clock)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def _workload(samples: list[float], peak: int, **meta) -> dict:
    return {
        "median_s": statistics.median(samples),
        "samples_s": samples,
        "tracemalloc_peak_bytes": peak,
        "meta": meta,
    }


# -- the pinned workloads -----------------------------------------------------


def _bench_gpt2_cached_decode(quick: bool) -> tuple[dict, dict]:
    from repro.models import GPT2Model
    from repro.models.config import gpt2_config

    num_layers = 2 if quick else 4
    prompt_len = 8 if quick else 32
    new_tokens = 16 if quick else 64
    config = gpt2_config().scaled(num_layers=num_layers)
    model = GPT2Model(config, rng=np.random.default_rng(0))
    prompt = np.random.default_rng(1).integers(0, config.vocab_size, size=prompt_len)
    meta = dict(
        model="gpt2", num_layers=num_layers, prompt_tokens=prompt_len,
        new_tokens=new_tokens, vocab_size=config.vocab_size,
    )

    def optimized():
        return model.generate_cached(prompt, max_new_tokens=new_tokens)

    def legacy():
        return _legacy_generate_cached(model, prompt, max_new_tokens=new_tokens)

    np.testing.assert_array_equal(optimized(), legacy())  # same tokens, also warmup
    opt = _workload(
        _time_samples(optimized, repeats=3, warmup=0),
        _tracemalloc_peak(optimized), **meta,
    )
    # the legacy path is deliberately slow — one timing and one tracing run
    leg = _workload(
        _time_samples(legacy, repeats=1, warmup=0),
        _tracemalloc_peak(legacy), **meta, reference="pre-optimisation hot path",
    )
    return opt, leg


def _bench_bert_single_pass(quick: bool) -> dict:
    from repro.bench.workloads import random_text
    from repro.models import BertModel, bert_large_config

    num_layers = 2 if quick else 8
    n_words = 64 if quick else 200
    config = bert_large_config().scaled(num_layers=num_layers)
    model = BertModel(config, num_classes=2, rng=np.random.default_rng(0))
    ids = model.encode_text(random_text(n_words))

    def forward():
        return model.forward(ids)

    samples = _time_samples(forward, repeats=3, warmup=1)
    return _workload(
        samples, _tracemalloc_peak(forward),
        model="bert-large", num_layers=num_layers, sequence_length=len(ids),
    )


def _bench_voltage_threaded(quick: bool) -> dict:
    from repro.bench.workloads import random_text
    from repro.cluster.spec import ClusterSpec
    from repro.models import BertModel, bert_large_config
    from repro.systems.voltage import VoltageSystem

    num_layers = 2 if quick else 4
    n_words = 48 if quick else 128
    config = bert_large_config().scaled(num_layers=num_layers)
    model = BertModel(config, num_classes=2, rng=np.random.default_rng(0))
    system = VoltageSystem(model, ClusterSpec.homogeneous(4))
    ids = model.encode_text(random_text(n_words))
    stats_seen: list = []

    def threaded():
        _, stats = system.execute_threaded(ids)
        stats_seen[:] = stats

    samples = _time_samples(threaded, repeats=3, warmup=1)
    peak = _tracemalloc_peak(threaded)
    return _workload(
        samples, peak,
        model="bert-large", num_layers=num_layers, devices=4,
        sequence_length=len(ids),
        buffers_reused=sum(s.buffers_reused for s in stats_seen),
        bytes_copied=sum(s.bytes_copied for s in stats_seen),
    )


def _bench_voltage_overlap(quick: bool) -> tuple[dict, dict, dict]:
    """Blocking vs overlapped threaded Voltage on the same deployment.

    Returns (blocking workload, overlapped workload, modeled-comm derived
    fields).  Outputs are asserted bit-identical before any timing.  The
    modeled figures come from ``run(overlap=True)``'s per-layer phases —
    deterministic, unlike the wall clocks (the in-memory queue "network" has
    near-zero latency, so overlapping threads may not beat blocking slots in
    wall time on a laptop; the deterministic exposed-comm model is what the
    regression gate checks).
    """
    from repro.bench.workloads import random_text
    from repro.cluster.spec import ClusterSpec
    from repro.models import BertModel, bert_large_config
    from repro.systems.voltage import VoltageSystem

    num_layers = 2 if quick else 4
    n_words = 48 if quick else 128
    config = bert_large_config().scaled(num_layers=num_layers)
    model = BertModel(config, num_classes=2, rng=np.random.default_rng(0))
    system = VoltageSystem(model, ClusterSpec.homogeneous(4), overlap=True)
    ids = model.encode_text(random_text(n_words))

    out_blocking, _ = system.execute_threaded(ids, overlap=False)
    out_overlapped, _ = system.execute_threaded(ids, overlap=True)
    np.testing.assert_array_equal(out_blocking, out_overlapped)

    def blocking():
        system.execute_threaded(ids, overlap=False)

    def overlapped():
        system.execute_threaded(ids, overlap=True)

    meta = dict(
        model="bert-large", num_layers=num_layers, devices=4,
        sequence_length=len(ids),
    )
    blk = _workload(
        _time_samples(blocking, repeats=3, warmup=1),
        _tracemalloc_peak(blocking), **meta, collectives="slot (blocking)",
    )
    ovl = _workload(
        _time_samples(overlapped, repeats=3, warmup=1),
        _tracemalloc_peak(overlapped), **meta, collectives="ring (overlapped)",
    )

    modeled = system.run(ids)
    exposed = list(modeled.meta["exposed_comm_per_layer"])
    hidden = modeled.meta["hidden_comm_s"]
    # blocking comm per inner layer = exposed + its share of the hidden time
    full = [
        p.seconds + p.hidden_s
        for p in modeled.latency.phases if p.name == "all-gather (overlapped)"
    ]
    derived = {
        "voltage_overlap_wall_speedup": blk["median_s"] / ovl["median_s"],
        "voltage_exposed_comm_per_layer_s": exposed,
        "voltage_modeled_comm_per_layer_s": full,
        "voltage_overlap_modeled_saving_s": hidden,
    }
    return blk, ovl, derived


def _bench_voltage_process(quick: bool) -> tuple[dict, dict, dict]:
    """Threaded vs process-backed Voltage on the same deployment.

    Returns (threaded workload, process workload, derived fields).  Outputs
    are asserted bit-identical before any timing.  Wall-clock ratios vary by
    host (the process backend pays fork + real socket hops but gains true
    multi-core BLAS); the deterministic figure the regression gate checks is
    ``voltage_process_socket_bytes`` — the total bytes that actually
    traversed the loopback sockets, an exact integer fixed by the protocol.
    """
    from repro.bench.workloads import random_text
    from repro.cluster.spec import ClusterSpec
    from repro.models import BertModel, bert_large_config
    from repro.systems.voltage import VoltageSystem

    num_layers = 2 if quick else 4
    n_words = 48 if quick else 128
    config = bert_large_config().scaled(num_layers=num_layers)
    model = BertModel(config, num_classes=2, rng=np.random.default_rng(0))
    system = VoltageSystem(model, ClusterSpec.homogeneous(4))
    ids = model.encode_text(random_text(n_words))

    out_threaded, _ = system.execute_distributed(ids, runtime="threaded")
    out_process, process_stats = system.execute_distributed(ids, runtime="process")
    np.testing.assert_array_equal(out_threaded, out_process)

    def threaded():
        system.execute_distributed(ids, runtime="threaded")

    def process():
        system.execute_distributed(ids, runtime="process")

    meta = dict(
        model="bert-large", num_layers=num_layers, devices=4,
        sequence_length=len(ids),
    )
    thr = _workload(
        _time_samples(threaded, repeats=3, warmup=1),
        _tracemalloc_peak(threaded), **meta, backend="threads + queue wire",
    )
    # tracemalloc only sees the parent's allocations for the process backend
    # (children are separate interpreters), so the peak is bootstrap overhead
    prc = _workload(
        _time_samples(process, repeats=3, warmup=1),
        _tracemalloc_peak(process), **meta, backend="processes + loopback TCP",
    )
    socket_bytes = int(sum(s.bytes_sent for s in process_stats))
    derived = {
        "voltage_process_wall_ratio": prc["median_s"] / thr["median_s"],
        "voltage_process_socket_bytes": socket_bytes,
    }
    return thr, prc, derived


def _bench_voltage_decode(quick: bool) -> tuple[dict, dict, dict]:
    """Single-device vs distributed KV-cached greedy decode.

    Returns (single-device workload, distributed workload, derived fields).
    Token outputs are asserted bit-identical before any timing — that is the
    whole contract of position-sharded decode.  The wall ratio is
    host-dependent (the distributed loop pays K-way thread coordination and
    a per-layer-per-step shard all-gather to buy the O(T/K) cache
    footprint); the deterministic figure the regression gate checks is
    ``voltage_decode_kv_gather_bytes`` — the per-device shard all-gather
    traffic of the whole generation, an exact integer fixed by the shard
    geometry and the greedy loop — and, as its own exact term,
    ``voltage_decode_head_bytes``: the sharded head's per-step pair exchange
    plus the last-row gather of each span-partitioned step.
    """
    from repro.cluster.spec import ClusterSpec
    from repro.models import GPT2Model
    from repro.models.config import gpt2_config
    from repro.systems.decode import generate_distributed, run_decode
    from repro.systems.voltage import VoltageSystem

    num_layers = 2 if quick else 4
    prompt_len = 8 if quick else 16
    new_tokens = 8 if quick else 24
    devices = 2
    config = gpt2_config().scaled(num_layers=num_layers)
    model = GPT2Model(config, rng=np.random.default_rng(0))
    system = VoltageSystem(model, ClusterSpec.homogeneous(devices))
    prompt = np.random.default_rng(2).integers(0, config.vocab_size, size=prompt_len)

    reference = model.generate_cached(prompt, max_new_tokens=new_tokens)
    distributed_ids, _ = generate_distributed(
        system, prompt, max_new_tokens=new_tokens
    )
    np.testing.assert_array_equal(distributed_ids, reference)

    def single():
        model.generate_cached(prompt, max_new_tokens=new_tokens)

    def distributed():
        generate_distributed(system, prompt, max_new_tokens=new_tokens)

    meta = dict(
        model="gpt2", num_layers=num_layers, prompt_tokens=prompt_len,
        new_tokens=new_tokens,
    )
    sgl = _workload(
        _time_samples(single, repeats=3, warmup=0),
        _tracemalloc_peak(single), **meta, devices=1,
    )
    dst = _workload(
        _time_samples(distributed, repeats=3, warmup=0),
        _tracemalloc_peak(distributed), **meta, devices=devices,
        kv_storage="position-sharded",
    )
    decode_meta = run_decode(system, prompt, max_new_tokens=new_tokens).meta
    derived = {
        "voltage_decode_wall_ratio": dst["median_s"] / sgl["median_s"],
        "voltage_decode_kv_gather_bytes": int(decode_meta["kv_gather_bytes_per_device"]),
        "voltage_decode_head_bytes": int(decode_meta["head_bytes_per_device"]),
    }
    return sgl, dst, derived


def _bench_voltage_decode_attention(quick: bool) -> tuple[dict, dict, dict]:
    """Gathered vs distributed attention decode at long context.

    Returns (gathered workload, distributed workload, derived fields).  The
    prompt is much longer than the head dimension — the regime the combine
    targets: gathered ships the whole K/V history every step (per-step bytes
    grow with the context), distributed ships one ``(o, m, l)`` stats tuple
    per head per step (per-step bytes flat in the context).  Token outputs
    are asserted identical to ``generate_cached`` before timing.  Wall
    ratios are host noise; the regression gate checks the exact per-device
    combine byte count and the flat-vs-growing shape of the two per-step
    wire profiles, all integers fixed by the protocol.
    """
    from repro.cluster.spec import ClusterSpec
    from repro.models import GPT2Model
    from repro.models.config import gpt2_config
    from repro.systems.decode import generate_distributed, run_decode
    from repro.systems.voltage import VoltageSystem

    num_layers = 2 if quick else 4
    prompt_len = 96 if quick else 256  # >> head_dim=64: long-context regime
    new_tokens = 6 if quick else 12
    devices = 2
    config = gpt2_config().scaled(num_layers=num_layers)
    model = GPT2Model(config, rng=np.random.default_rng(0))
    system = VoltageSystem(model, ClusterSpec.homogeneous(devices))
    prompt = np.random.default_rng(3).integers(0, config.vocab_size, size=prompt_len)

    reference = model.generate_cached(prompt, max_new_tokens=new_tokens)
    dist_ids, _ = generate_distributed(
        system, prompt, max_new_tokens=new_tokens, attention="distributed"
    )
    np.testing.assert_array_equal(dist_ids, reference)

    def gathered():
        generate_distributed(system, prompt, max_new_tokens=new_tokens)

    def distributed():
        generate_distributed(
            system, prompt, max_new_tokens=new_tokens, attention="distributed"
        )

    meta = dict(
        model="gpt2", num_layers=num_layers, prompt_tokens=prompt_len,
        new_tokens=new_tokens, devices=devices,
    )
    gat = _workload(
        _time_samples(gathered, repeats=3, warmup=0),
        _tracemalloc_peak(gathered), **meta, attention="gathered",
    )
    dst = _workload(
        _time_samples(distributed, repeats=3, warmup=0),
        _tracemalloc_peak(distributed), **meta, attention="distributed",
    )
    grun = run_decode(system, prompt, max_new_tokens=new_tokens)
    drun = run_decode(
        system, prompt, max_new_tokens=new_tokens, attention="distributed"
    )
    derived = {
        "voltage_decode_attn_wall_ratio": dst["median_s"] / gat["median_s"],
        "voltage_decode_combine_bytes": int(drun.meta["combine_bytes_per_device"]),
        "voltage_decode_per_step_gather_bytes": [
            int(b) for b in grun.meta["per_step_comm_bytes_per_device"]
        ],
        "voltage_decode_per_step_combine_bytes": [
            int(b) for b in drun.meta["per_step_comm_bytes_per_device"]
        ],
    }
    return gat, dst, derived


def run_perf_suite(quick: bool = False) -> dict:
    """Run every workload; returns one mode's report payload."""
    opt, leg = _bench_gpt2_cached_decode(quick)
    overlap_blk, overlap_ovl, overlap_derived = _bench_voltage_overlap(quick)
    process_thr, process_prc, process_derived = _bench_voltage_process(quick)
    decode_sgl, decode_dst, decode_derived = _bench_voltage_decode(quick)
    attn_gat, attn_dst, attn_derived = _bench_voltage_decode_attention(quick)
    workloads = {
        "gpt2_cached_decode": opt,
        "gpt2_cached_decode_legacy": leg,
        "bert_single_pass": _bench_bert_single_pass(quick),
        "voltage_threaded_layer": _bench_voltage_threaded(quick),
        "voltage_threaded_blocking": overlap_blk,
        "voltage_threaded_overlapped": overlap_ovl,
        "voltage_runtime_threaded": process_thr,
        "voltage_runtime_process": process_prc,
        "voltage_decode_single": decode_sgl,
        "voltage_decode_distributed": decode_dst,
        "voltage_decode_gathered_attn": attn_gat,
        "voltage_decode_distributed_attn": attn_dst,
    }
    derived = {
        "cached_decode_speedup_vs_legacy": leg["median_s"] / opt["median_s"],
        "cached_decode_peak_drop_vs_legacy": (
            leg["tracemalloc_peak_bytes"] / max(opt["tracemalloc_peak_bytes"], 1)
        ),
        **overlap_derived,
        **process_derived,
        **decode_derived,
        **attn_derived,
    }
    return {"workloads": workloads, "derived": derived}


# -- report emission + regression gate ----------------------------------------


def emit_report(payload: dict, mode: str, path: Path) -> dict:
    """Write/merge one mode's payload into the report file at ``path``."""
    doc = {"schema": SCHEMA, "modes": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = None
        if isinstance(existing, dict) and existing.get("schema") == SCHEMA:
            doc = existing
            doc.setdefault("modes", {})
    doc["modes"][mode] = payload
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def check_regression(
    payload: dict, mode: str, baseline_path: Path, factor: float = REGRESSION_FACTOR
) -> list[str]:
    """Compare this run's speedup ratio against the committed baseline.

    Returns a list of human-readable failures (empty = pass).  The gate is
    ratio-based so it holds across hosts of different absolute speed.
    """
    if not baseline_path.exists():
        return [f"baseline {baseline_path} does not exist"]
    try:
        doc = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as exc:
        return [f"baseline {baseline_path} is not valid JSON: {exc}"]
    if doc.get("schema") != SCHEMA:
        return [f"baseline schema {doc.get('schema')!r} != {SCHEMA!r}"]
    base = doc.get("modes", {}).get(mode)
    if base is None:
        return [f"baseline {baseline_path} has no {mode!r} mode entry"]
    base_ratio = base["derived"]["cached_decode_speedup_vs_legacy"]
    now_ratio = payload["derived"]["cached_decode_speedup_vs_legacy"]
    errors = []
    if now_ratio * factor < base_ratio:
        errors.append(
            f"cached-decode speedup regressed >{factor:g}x: "
            f"{now_ratio:.1f}x now vs {base_ratio:.1f}x baseline"
        )
    # deterministic overlap invariants (model-derived, host-independent) —
    # guarded on presence so pre-overlap baselines/payloads still validate
    derived = payload.get("derived", {})
    exposed = derived.get("voltage_exposed_comm_per_layer_s")
    full = derived.get("voltage_modeled_comm_per_layer_s")
    if exposed is not None and full is not None:
        for layer, (e, f) in enumerate(zip(exposed, full)):
            if e > f + 1e-12:
                errors.append(
                    f"overlap model: layer {layer} exposed comm {e!r} exceeds "
                    f"blocking comm {f!r}"
                )
        saving = derived.get("voltage_overlap_modeled_saving_s", 0.0)
        if saving < 0:
            errors.append(f"overlap model: negative modeled saving {saving!r}")
    # the process runtime's socket byte count is protocol-determined: any
    # change is a wire-format or accounting change, not host noise — exact
    # equality, presence-guarded so pre-process baselines still validate
    now_bytes = derived.get("voltage_process_socket_bytes")
    base_bytes = base.get("derived", {}).get("voltage_process_socket_bytes")
    if now_bytes is not None and base_bytes is not None and now_bytes != base_bytes:
        errors.append(
            f"process runtime socket bytes changed: {now_bytes} now vs "
            f"{base_bytes} baseline (wire/accounting change?)"
        )
    # likewise, the decode KV-shard all-gather volume is fixed by the shard
    # geometry and the greedy loop — exact equality, presence-guarded
    now_kv = derived.get("voltage_decode_kv_gather_bytes")
    base_kv = base.get("derived", {}).get("voltage_decode_kv_gather_bytes")
    if now_kv is not None and base_kv is not None and now_kv != base_kv:
        errors.append(
            f"decode KV all-gather bytes changed: {now_kv} now vs "
            f"{base_kv} baseline (shard geometry or loop change?)"
        )
    # the sharded head's exchange rides beside it as its own exact count: one
    # (max logit, index) pair per peer per step, plus the last-row gather of
    # each span-partitioned step — presence-guarded as above
    now_head = derived.get("voltage_decode_head_bytes")
    base_head = base.get("derived", {}).get("voltage_decode_head_bytes")
    if now_head is not None and base_head is not None and now_head != base_head:
        errors.append(
            f"decode head exchange bytes changed: {now_head} now vs "
            f"{base_head} baseline (head sharding or step-shape change?)"
        )
    # distributed-attention decode: the combine stats volume is fixed by the
    # packing (one (F_H + 2)-row per head per new position per layer), so
    # exact equality vs the baseline — presence-guarded as above
    now_combine = derived.get("voltage_decode_combine_bytes")
    base_combine = base.get("derived", {}).get("voltage_decode_combine_bytes")
    if now_combine is not None and base_combine is not None and now_combine != base_combine:
        errors.append(
            f"decode combine bytes changed: {now_combine} now vs "
            f"{base_combine} baseline (stats packing or loop change?)"
        )
    # the whole point of the combine: per-step wire bytes must be *flat* in
    # the context for distributed attention, while the gathered profile
    # grows as the cache fills (step 0 is the prefill and is excluded)
    combine_steps = derived.get("voltage_decode_per_step_combine_bytes")
    if combine_steps is not None and len(combine_steps) > 2:
        decode_only = combine_steps[1:]
        if len(set(decode_only)) != 1:
            errors.append(
                f"distributed-attention per-step bytes not flat: {decode_only}"
            )
    gather_steps = derived.get("voltage_decode_per_step_gather_bytes")
    if gather_steps is not None and len(gather_steps) > 2:
        decode_only = gather_steps[1:]
        nondecreasing = all(a <= b for a, b in zip(decode_only, decode_only[1:]))
        if not nondecreasing or decode_only[-1] <= decode_only[0]:
            errors.append(
                f"gathered per-step bytes should grow with the context: {decode_only}"
            )
    return errors
