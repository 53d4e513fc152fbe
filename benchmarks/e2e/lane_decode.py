"""``decode-long``: batch-1 generation, the paper's "sporadic single request".

Closed loop, one slot.  Each round sends one request (long prompt, a few
dozen new tokens) through ``InferenceEngine`` + ``WallClock`` on three
variants, order rotated per round: ``GPT2CachedSequencer`` (single device),
``VoltageDecodeSequencer(attention="gathered")`` and ``("distributed")`` on
K resident threaded ranks.  This uses ``cluster`` the other way round from
``encoder-forward``: dozens of tiny latency-bound collectives per token
instead of a few large ones; GEMMs degenerate to GEMVs; engine batching and
every cache are bypassed.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import probes
from harness import K, Lane
from inputs import digest, lane_rng, token_prompt
from proxy import TimingSequencer, timed_method
from stats import fastest_third_rate, median

VARIANTS = ("single", "gathered", "distributed")


def gpt_config(scale: str):
    """The decoder every GPT lane uses: GPT-2 geometry (F=768, H=12, vocab
    50257) cut to 4 layers, or a tiny canary of the same structure."""
    from repro.models.config import gpt2_config

    if scale == "full":
        return gpt2_config().scaled(num_layers=4, max_positions=256)
    return gpt2_config().scaled(
        num_layers=2, hidden_size=128, num_heads=4, ffn_dim=512, vocab_size=2000,
        max_positions=128, name="gpt2-canary",
    )


def run_one(engine, request_id: int, prompt: np.ndarray):
    """Serve one request now; returns the engine's report."""
    from repro.serving.arrivals import Request

    return engine.run(
        [Request(arrival=engine.clock.now(), n=len(prompt), id=request_id)],
        prompts={request_id: prompt},
    )


def references(model, prompts, new_tokens: int) -> list[np.ndarray]:
    """``generate_cached`` of every prompt, the output every decode and serve
    request is checked against.  Runs after the window, on K threads: a
    reference costs as much as serving the request did."""
    with ThreadPoolExecutor(K) as pool:
        return list(pool.map(lambda prompt: model.generate_cached(prompt, new_tokens), prompts))


def engine_round(report, steps, wall: float, num_slots: int) -> dict:
    """Engine accounting of one closed-loop round (no idle wait: every
    request had arrived when the round began)."""
    busy = sum(s.end - s.start for s in steps)
    return {
        "engine.step_busy_share": busy / wall,
        "engine.loop_overhead_s_per_step": (wall - busy) / len(steps),
        "engine.steps_total": report.steps_total,
        "engine.prefill_steps": sum(s.kind == "prefill" for s in steps),
        "engine.decode_steps": sum(s.kind != "prefill" for s in steps),
        "engine.batch_size_mean": report.mean_slot_occupancy * num_slots,
        "engine.preemptions_total": report.preemptions_total,
        "engine.shed_total": len(report.shed),
    }


def engine_layer(rounds: list[dict]) -> dict[str, float]:
    """Per-round medians of ``engine_round`` records; totals are summed."""
    totals = ("engine.preemptions_total", "engine.shed_total")
    return {
        key: sum(r[key] for r in rounds) if key in totals else median(r[key] for r in rounds)
        for key in rounds[0]
    }


def check_generation(lane: Lane, model, what: str, output, reference, tie_ok=False) -> None:
    """Count ``output`` as failed unless it equals ``generate_cached``'s
    tokens (``tie_ok``: or diverges first at a benign argmax tie)."""
    from repro.models.cache import KVCache
    from repro.verify.tolerances import benign_argmax_tie

    if output is None:
        return None  # counted when the request raised or did not complete
    if np.array_equal(output, reference):
        return None
    if tie_ok and len(output) == len(reference):
        first = int(np.argmax(output != reference))
        cache = KVCache.empty(model.num_layers, capacity=first)
        logits = model.logits_cached(reference[:first], 0, cache.layers)
        if benign_argmax_tie(logits, "float32"):
            return None
    return lane.fail(f"{what}: output differs from generate_cached")


class DecodeLongLane(Lane):
    name = "decode-long"
    min_rounds = 3

    def setup(self) -> None:
        from repro import engine as E
        from repro.cluster.spec import ClusterSpec
        from repro.models.gpt2 import GPT2Model
        from repro.systems.decode import decode_capacity
        from repro.systems.voltage import VoltageSystem

        full = self.scale == "full"
        self.prompt_len, self.new_tokens = (192, 24) if full else (48, 8)
        config = gpt_config(self.scale)
        self.model = GPT2Model(config, rng=np.random.default_rng(0))
        self.system = VoltageSystem(self.model, ClusterSpec.homogeneous(K))
        rng = lane_rng(self.seed, self.name)
        # two distinct prompts, alternated by round: references stay cheap to check
        self.prompts = [token_prompt(rng, self.prompt_len, config.vocab_size) for _ in range(2)]
        self.info["input_sha256"] = digest(*self.prompts)
        new = self.new_tokens
        sequencers = {
            "single": E.GPT2CachedSequencer(self.model, max_new_tokens=new),
            "gathered": E.VoltageDecodeSequencer(self.system, max_new_tokens=new, attention="gathered"),
            "distributed": E.VoltageDecodeSequencer(
                self.system, max_new_tokens=new, attention="distributed"
            ),
        }
        self.proxies = {name: TimingSequencer(seq) for name, seq in sequencers.items()}
        for name, proxy in self.proxies.items():
            proxy.request_tag = name + "-"
        self.engines = {
            name: E.InferenceEngine(proxy, E.EngineConfig(num_slots=1), clock=E.WallClock())
            for name, proxy in self.proxies.items()
        }
        capacity = decode_capacity(self.model, self.prompt_len, new)
        starts = []
        for name in VARIANTS[1:]:  # resident ranks come up on the first command
            began = time.perf_counter()
            session = sequencers[name].session()
            session.begin(0, capacity)
            session.release(0)
            starts.append(time.perf_counter() - began)
        self.session_start_s = median(starts)
        self.sequencers = sequencers
        self.rates: dict[str, list[float]] = {name: [] for name in VARIANTS}
        self.outputs: dict[str, list] = {name: [] for name in VARIANTS}
        self.step_times: dict[str, dict[str, list[float]]] = {
            name: {"prefill": [], "decode": []} for name in VARIANTS
        }
        self.engine_rounds: list[dict] = []  # single-device variant
        self.session_bytes: dict[str, float] = {}
        self.requests_served = 0

    def warm_up(self) -> None:
        for name in VARIANTS:
            run_one(self.engines[name], 0, self.prompts[0])
            self.proxies[name].drain()
        self.requests_served += 1

    def measure(self, seconds: float, tracer) -> None:
        if tracer is not None:
            for name in VARIANTS[1:]:
                proxy = self.proxies[name]
                timed_method(
                    self.sequencers[name].session(), "forward", [],
                    spans_of=lambda proxy=proxy: proxy.spans, span_name="session.forward",
                )
        for index, spans in self.rounds(seconds, tracer):
            prompt = self.prompts[index % len(self.prompts)]
            for offset in range(len(VARIANTS)):
                name = VARIANTS[(index + offset) % len(VARIANTS)]
                self._request(name, index, prompt, spans)
            self.requests_served += 1
        self.info["rounds"] = len(self.outputs["single"])

    def _request(self, name: str, index: int, prompt: np.ndarray, spans) -> None:
        proxy = self.proxies[name]
        proxy.spans = spans
        self.attempted += 1
        output = report = None
        began = time.perf_counter()
        try:
            report = run_one(self.engines[name], index, prompt)
            output = report.outputs().get(index)
            if output is None:
                self.fail(f"{name} round {index}: request did not complete")
        except Exception as exc:
            self.fail(f"{name} request raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - began
        _, steps = proxy.drain()
        self.outputs[name].append(output)
        if output is None:
            self.rates[name].append(math.nan)  # keeps sample index == round index
            return
        self.rates[name].append((len(output) - len(prompt)) / wall)
        for step in steps:
            self.step_times[name][step.kind].append(step.end - step.start)
        if name == "single":
            self.engine_rounds.append(engine_round(report, steps, wall, num_slots=1))

    def close(self) -> None:
        from repro.obs import get_registry

        sent = get_registry().counter("runtime.bytes_sent")
        for name in VARIANTS[1:]:  # a session reports its traffic when its ranks exit
            before = sent.value
            self.sequencers[name].close()
            self.session_bytes[name] = sent.value - before

    def check(self) -> None:
        expected = references(self.model, self.prompts, self.new_tokens)
        for name in VARIANTS:
            for index, output in enumerate(self.outputs[name]):
                which = index % len(self.prompts)
                check_generation(
                    self, self.model, f"{name} round {index}", output, expected[which],
                    tie_ok=name == "distributed",
                )

    def end_to_end(self) -> dict[str, float]:
        self.info["samples"] = {name: len(v) for name, v in self.rates.items()}
        self.raw = {"rates": self.rates, "steps": self.step_times}
        return {
            "decode_single_tokens_per_s": median(self.rates["single"]),
            **{f"decode_{name}_tokens_per_s": fastest_third_rate(self.rates[name])
               for name in VARIANTS[1:]},  # the K=2 variants: see stats.fastest_third_rate
        }

    # -- per-layer -------------------------------------------------------------

    def probe(self, budget: float) -> None:
        from repro.cluster.process_runtime import ProcessRuntime
        from repro.cluster.runtime import ThreadedRuntime
        from repro.core.combine import combine_softmax_stats, local_softmax_stats
        from repro.models.cache import LayerKVCache
        from repro.systems.decode import decode_capacity, decode_layer_spans

        each = budget / 12
        model, layer_metrics = self.model, self.layer
        config = model.config
        heads, head_dim, layers = config.num_heads, config.head_dim, model.num_layers
        rng = np.random.default_rng(0)
        context = self.prompt_len + self.new_tokens // 2

        # tensor, models: one cached decode step at mid-generation context, and its LM head
        layer_metrics.update(probes.decoder_step(model, context, each))
        step = layer_metrics["models.decode_step_s_p50"]
        row = rng.standard_normal((heads, 1, head_dim), dtype=np.float32)
        kv = LayerKVCache(capacity=context + 1)
        kv.append(np.repeat(row, context, axis=1), np.repeat(row, context, axis=1))

        def append():
            kv.append(row, row)
            kv.truncate(context)

        layer_metrics["models.kv_append_s"] = probes.timed(append, each)
        layer_metrics["models.kv_bytes_per_token"] = layers * 2 * heads * head_dim * 4

        # core: the K-shard log-sum-exp combine of one decode step
        shard = rng.standard_normal((heads, context // K, head_dim), dtype=np.float32)
        stats = [
            local_softmax_stats(row, shard, shard, shard_start=r * (context // K), query_offset=context)
            for r in range(K)
        ]
        layer_metrics["core.combine_s"] = probes.timed(lambda: combine_softmax_stats(stats), each)

        # cluster: the latency-bound collective of distributed-attention decode
        block = rng.standard_normal((1, heads * (head_dim + 2)), dtype=np.float32)
        layer_metrics["cluster.threaded_all_gather_small_s"] = probes.collective_seconds(
            ThreadedRuntime(K), block, "all_gather", 200)
        layer_metrics["cluster.process_all_gather_small_s"] = probes.collective_seconds(
            ProcessRuntime(K), block, "all_gather", 200)

        # systems
        times = self.step_times
        for name in VARIANTS[1:]:
            layer_metrics[f"systems.{name}_prefill_s_p50"] = median(times[name]["prefill"])
            layer_metrics[f"systems.{name}_step_overhead_s"] = median(times[name]["decode"]) - step
        layer_metrics["systems.session_start_s"] = self.session_start_s
        capacity = decode_capacity(model, self.prompt_len, self.new_tokens)
        rank_rows = max(parts[0].length for parts in decode_layer_spans(self.system, capacity))
        layer_metrics["systems.rank_kv_mb"] = rank_rows * layers * 2 * heads * head_dim * 4 / 1e6
        # wire bytes per generated token (prefill traffic included), exact
        tokens = self.requests_served * self.new_tokens
        layer_metrics["systems.kv_gather_bytes_per_token"] = self.session_bytes["gathered"] / tokens
        layer_metrics["systems.combine_bytes_per_token"] = self.session_bytes["distributed"] / tokens

        # engine: a batch of one, so the loop's own cost per step shows undiluted
        layer_metrics.update(engine_layer(self.engine_rounds))
        layer_metrics["obs.overhead_share"] = self.overhead_share(
            self.rates["single"], higher_is_better=True
        )
