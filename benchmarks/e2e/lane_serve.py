"""The two engine-serving lanes.

``serve-saturated`` — offline batch.  Each round replays the same requests
(all arriving at once, unshared short prompts) through a multi-slot engine
with the prefix cache off, on two variants in rotated order: the plain
``GPT2CachedSequencer`` and ``SpeculativeSequencer(NgramProposer())``.
Throughput at saturation: the engine loop, the slot pool and the per-slot
GEMV chain do all the work, ``cluster`` none.  This is where batched
multi-request decode must show, and where speculative verify is seen winning
or losing in wall time.

``serve-shared-prefix`` — open loop.  Poisson arrivals at a fixed rate from
four weighted tenants whose prompts open with a long shared prefix, served
with ``prefix_cache=True``.  Latency is timed from each request's *due*
time.  Arrival-driven, prefill-heavy traffic: queueing, the radix prefix
cache and multi-row prefills delaying co-resident decodes.
``serve-saturated`` bypasses the cache, so a prefix-cache change predicts no
change there.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext

import numpy as np

import probes
from harness import Lane
from inputs import digest, lane_rng, shared_prefix_arrivals, token_prompt
from lane_decode import (
    check_generation, engine_layer, engine_round, gpt_config, references, run_one,
)
from proxy import TimedProposer, TimingSequencer, timed_method
from stats import median, percentile, supported_percentile


def _build_model(scale: str):
    from repro.models.gpt2 import GPT2Model

    return GPT2Model(gpt_config(scale), rng=np.random.default_rng(0))


def _kv_bytes(model, rows: int) -> int:
    config = model.config
    return rows * model.num_layers * 2 * config.hidden_size * 4


class ServeSaturatedLane(Lane):
    name = "serve-saturated"
    min_rounds = 2

    def setup(self) -> None:
        from repro import engine as E

        full = self.scale == "full"
        count, self.lengths, self.new_tokens, self.num_slots = (
            (8, (16, 32), 12, 4) if full else (4, (8, 16), 6, 2)
        )
        self.model = _build_model(self.scale)
        rng = lane_rng(self.seed, self.name)
        vocab = self.model.config.vocab_size
        self.prompts = {
            i: token_prompt(rng, rng.integers(self.lengths[0], self.lengths[1] + 1), vocab)
            for i in range(count)
        }
        self.info["input_sha256"] = digest(*self.prompts.values())
        self.proposer = TimedProposer(E.NgramProposer())
        self.sequencers = {
            "plain": E.GPT2CachedSequencer(self.model, max_new_tokens=self.new_tokens),
            "spec": E.SpeculativeSequencer(
                self.model, self.proposer, max_new_tokens=self.new_tokens
            ),
        }
        self.proxies = {
            "plain": TimingSequencer(self.sequencers["plain"]),
            "spec": TimingSequencer(self.sequencers["spec"], decode_kind="verify"),
        }
        self.engines = {
            name: E.InferenceEngine(proxy, E.EngineConfig(num_slots=self.num_slots), clock=E.WallClock())
            for name, proxy in self.proxies.items()
        }
        self.rates: dict[str, list[float]] = {"plain": [], "spec": []}
        self.spec_wall = 0.0
        self.outputs: dict[str, list[dict]] = {"plain": [], "spec": []}
        self.gaps: list[float] = []
        self.engine_rounds: list[dict] = []  # plain variant

    def warm_up(self) -> None:
        for name, engine in self.engines.items():
            run_one(engine, 0, self.prompts[0])
            self.proxies[name].drain()
        self.spec_before = self.sequencers["spec"].stats.snapshot()
        self.draft_before = self.proposer.seconds

    def _batch(self, name: str, index: int, spans) -> None:
        from repro.serving.arrivals import Request

        engine, proxy = self.engines[name], self.proxies[name]
        proxy.spans = spans
        proxy.request_tag = f"{name}-{index}-"
        now = engine.clock.now()
        requests = [Request(arrival=now, n=len(p), id=i) for i, p in self.prompts.items()]
        self.attempted += len(requests)
        began = time.perf_counter()
        try:
            report = engine.run(requests, prompts=self.prompts)
        except Exception as exc:  # the batch failed: each of its requests did, once
            self.fail(f"{name} round {index} raised {type(exc).__name__}: {exc}", len(requests))
            proxy.drain()
            self.outputs[name].append({})
            self.rates[name].append(math.nan)  # keeps sample index == round index
            return
        wall = time.perf_counter() - began
        logs, steps = proxy.drain()
        outputs = report.outputs()
        for request in requests:
            if request.id not in outputs:
                self.fail(f"{name} round {index}: request {request.id} did not complete")
        self.outputs[name].append(outputs)
        tokens = sum(len(outputs[i]) - len(self.prompts[i]) for i in outputs)
        self.rates[name].append(tokens / wall)
        if name == "plain":
            for log in logs.values():
                self.gaps.extend(np.diff(log.token_times()).tolist())
            self.engine_rounds.append(engine_round(report, steps, wall, self.num_slots))
        else:
            self.spec_wall += wall

    def measure(self, seconds: float, tracer) -> None:
        names = list(self.engines)
        for index, spans in self.rounds(seconds, tracer):
            for offset in range(len(names)):
                self._batch(names[(index + offset) % len(names)], index, spans)
            if index == 0:  # slots allocate on first use; steady state starts after round 0
                self.allocations_before = self.engines["plain"].pool.allocations()
        self.info["rounds"] = len(self.rates["plain"])
        # demoted from the end-to-end list (README): how much speculation accepts
        # depends on what the prompts say, so it moves 12-18% with the seed
        self.layer["tail.spec_tokens_per_s"] = median(
            v for i, v in enumerate(self.rates["spec"]) if i not in self.traced_rounds
        )

    def check(self) -> None:
        expected = references(self.model, self.prompts.values(), self.new_tokens)
        for name in ("plain", "spec"):  # speculative output == plain output == reference
            for index, outputs in enumerate(self.outputs[name]):
                for i, output in outputs.items():
                    check_generation(self, self.model, f"{name} round {index} request {i}",
                                     output, expected[i])

    def end_to_end(self) -> dict[str, float]:
        self.info["samples"] = {"rounds": len(self.rates["plain"]), "itl_gaps": len(self.gaps)}
        self.raw = {"rates": self.rates, "gaps": self.gaps}
        return {
            "tokens_per_s": median(self.rates["plain"]),
            "itl_p50_s": median(self.gaps),
        }

    def probe(self, budget: float) -> None:
        from repro.engine import Scheduler
        from repro.models.cache import KVCache
        from repro.serving.arrivals import Request

        each = budget / 5
        model, layer_metrics = self.model, self.layer
        engine, proxy = self.engines["plain"], self.proxies["plain"]
        layer_metrics.update(engine_layer(self.engine_rounds))
        capacity = engine.pool.capacity
        layer_metrics["engine.kv_reserved_mb"] = _kv_bytes(model, self.num_slots * capacity) / 1e6
        layer_metrics["engine.kv_used_peak_share"] = proxy.kv_rows_peak / (self.num_slots * capacity)
        layer_metrics["engine.slot_allocations"] = engine.pool.allocations() - self.allocations_before

        scheduler = Scheduler()
        request = Request(arrival=0.0, n=16, id=0)

        def schedule():
            scheduler.submit(request, 0.0)
            scheduler.next_ready(0.0)

        layer_metrics["engine.scheduler_op_s"] = probes.timed(schedule, each, max_reps=20000)

        spec = self.sequencers["spec"].stats.delta(self.spec_before)
        layer_metrics["engine.speculative.accept_share"] = spec.acceptance_rate
        layer_metrics["engine.speculative.tokens_per_forward"] = spec.tokens_per_forward
        layer_metrics["engine.speculative.draft_s_share"] = (
            (self.proposer.seconds - self.draft_before) / self.spec_wall
        )

        # models: a plain decode step and the speculative verify forward (4
        # positions), both against a mid-run cache
        context = (self.lengths[0] + self.lengths[1]) // 2 + self.new_tokens // 2
        layer_metrics.update(probes.decoder_step(model, context, each / 2))
        cache = KVCache.empty(model.num_layers, capacity=context + 4)
        model.logits_cached(token_prompt(np.random.default_rng(0), context, 100), 0, cache.layers)

        layer_metrics["models.verify_forward_s_p50"] = probes.cached_forward_seconds(
            model, cache.layers, [1, 2, 3, 4], context, each, all_positions=True
        )
        layer_metrics["obs.overhead_share"] = self.overhead_share(
            self.rates["plain"], higher_is_better=True
        )


class ServeSharedPrefixLane(Lane):
    name = "serve-shared-prefix"
    TENANT_WEIGHTS = (0.4, 0.3, 0.2, 0.1)

    def setup(self) -> None:
        from repro import engine as E

        full = self.scale == "full"
        # rate: about 0.4x the request rate the seed commit saturates at on the
        # reference box (3.8 req/s).  Not the issue's 0.6x: this box slows down by
        # 1.5-2x for minutes at a time, which at 2.2 req/s pushed the open loop to
        # 0.85 utilisation, where the median token gap doubles (spread 26-34%).
        # cache: 8 retained prompts, warmed by one request per tenant.  Cold and
        # with the default 4, 7 of 33 lookups missed (TTFT 0.11 s against 0.057 s
        # for a hit on an idle engine); with the arrivals that find the engine busy
        # 45% of requests were slow, so the *median* request sat on the edge
        # between the two groups and ttft_p50_s moved 12-17% run to run.  Now 2 of
        # 33 miss, a third are slow (3-7%), and 25 inserts still evict.
        # limits: 3x the medians the seed showed on a busy host (all frozen per
        # machine class)
        (self.rate, self.prefix_len, self.unique, self.new_tokens, self.num_slots,
         self.cache_slots, self.ttft_limit_s, self.itl_limit_s) = (
            (1.5, 96, (8, 24), 8, 4, 8, 0.22, 0.08) if full
            else (25.0, 24, (4, 8), 4, 2, 2, 0.030, 0.015)
        )
        self.model = _build_model(self.scale)
        self.sequencer = E.GPT2CachedSequencer(self.model, max_new_tokens=self.new_tokens)
        self.proxy = TimingSequencer(self.sequencer)
        self.engine = E.InferenceEngine(
            self.proxy,
            E.EngineConfig(num_slots=self.num_slots, prefix_cache=True,
                           prefix_cache_slots=self.cache_slots),
            clock=E.WallClock(),
        )
        self.rng = lane_rng(self.seed, self.name)
        vocab = self.model.config.vocab_size
        self.prefixes = [token_prompt(self.rng, self.prefix_len, vocab) for _ in self.TENANT_WEIGHTS]
        self.sent: list = []  # (Arrival, request id)
        self.outputs: dict[int, np.ndarray] = {}
        self.ttft: dict[int, float] = {}
        self.gaps: dict[int, list[float]] = {}
        self.gaps_with_prefill: list[float] = []
        self.queue_wait: list[float] = []
        self.pass_ttft_p50: list[float] = []
        self.cache_counts = {"hits": 0, "misses": 0, "evictions": 0, "positions_saved": 0}
        self.match_samples: list[float] = []

    def warm_up(self) -> None:
        """One untimed request per tenant: the window measures a cache that
        already holds every tenant's opening, not each tenant's first miss."""
        vocab = self.model.config.vocab_size
        warm = [np.concatenate([prefix, token_prompt(self.rng, self.unique[0], vocab)])
                for prefix in self.prefixes]
        self._serve([(0.0, prompt) for prompt in warm], record=False)

    def _serve(self, due_prompts, record: bool = True, first_id: int = 0):
        """Send ``(due, prompt)`` pairs on schedule through one engine run."""
        from repro.serving.arrivals import Request

        clock = self.engine.clock
        base, perf_base = clock.now() + 0.02, time.perf_counter() + 0.02
        requests, prompts = [], {}
        for offset, (due, prompt) in enumerate(due_prompts):
            request_id = first_id + offset
            requests.append(Request(arrival=base + due, n=len(prompt), id=request_id))
            prompts[request_id] = prompt
        report = self.engine.run(requests, prompts=prompts)
        logs, steps = self.proxy.drain()
        if not record:
            return None
        outputs = report.outputs()
        prefills = [s for s in steps if s.kind == "prefill"]
        ttfts = []
        for request, (due, _) in zip(requests, due_prompts):
            log = logs.get(request.id)
            if request.id not in outputs or log is None:
                continue
            self.outputs[request.id] = outputs[request.id]
            times = log.token_times()
            self.ttft[request.id] = times[0] - (perf_base + due)
            ttfts.append(self.ttft[request.id])
            self.gaps[request.id] = np.diff(times).tolist()
            for earlier, later in zip(times, times[1:]):
                if any(p.request != request.id and earlier <= p.start < later for p in prefills):
                    self.gaps_with_prefill.append(later - earlier)
        self.queue_wait += [c.start - c.request.arrival for c in report.completed]
        self.pass_ttft_p50.append(median(ttfts))
        for key in self.cache_counts:
            self.cache_counts[key] += report.prefix_cache[key]
        self.info["shed"] = self.info.get("shed", 0) + len(report.shed)
        return report

    def measure(self, seconds: float, tracer) -> None:
        from repro import obs

        vocab = self.model.config.vocab_size
        passes = [tracer, None] if tracer is not None else [None]
        if tracer is not None:  # in-situ timing of the radix lookup, traced run only
            timed_method(self.engine.prefix_cache, "match", self.match_samples)
        for index, pass_tracer in enumerate(passes):
            arrivals = shared_prefix_arrivals(
                self.rng, rate=self.rate,
                count=max(8, round(self.rate * seconds / len(passes))),
                tenant_weights=self.TENANT_WEIGHTS, prefixes=self.prefixes,
                unique_range=self.unique, vocab=vocab,
            )
            first_id = len(self.sent)
            self.sent += arrivals
            self.attempted += len(arrivals)
            self.proxy.spans = self.spans if pass_tracer is not None else None
            self.proxy.request_tag = "shared-"
            if pass_tracer is not None:
                self.traced_rounds.add(index)
            try:
                with obs.use_tracer(pass_tracer) if pass_tracer is not None else nullcontext():
                    self._serve([(a.due, a.prompt) for a in arrivals], first_id=first_id)
            except Exception as exc:  # its requests are counted in check(): none completed
                self.fail(f"pass {index} raised {type(exc).__name__}: {exc}", count=0)
                self.proxy.drain()
        self.info["input_sha256"] = digest(*[a.prompt for a in self.sent],
                                           np.array([a.due for a in self.sent]))
        self.info["sent"] = len(self.sent)

    def check(self) -> None:
        self.correct: set[int] = set()
        expected = references(self.model, [a.prompt for a in self.sent], self.new_tokens)
        for request_id, reference in enumerate(expected):
            output = self.outputs.get(request_id)
            if output is None:
                self.fail(f"request {request_id} did not complete")
                continue
            before = self.failed
            check_generation(self, self.model, f"request {request_id}", output, reference)
            if self.failed == before:
                self.correct.add(request_id)
        # demoted from the end-to-end list (README): the share of requests sent
        # that are correct and inside both frozen limits is a tail statistic, and
        # one request of the 33 a window holds is 3% against a bound of 5%
        met = sum(
            1 for request_id in self.correct
            if self.ttft[request_id] <= self.ttft_limit_s
            and float(np.mean(self.gaps[request_id])) <= self.itl_limit_s
        )
        self.layer["tail.slo_met_share"] = met / len(self.sent) if self.sent else 0.0

    def end_to_end(self) -> dict[str, float]:
        gaps = [g for values in self.gaps.values() for g in values]
        self.info["samples"] = {"ttft": len(self.ttft), "itl_gaps": len(gaps)}
        self.raw = {"ttft": self.ttft, "gaps": self.gaps}
        self.info["supported_percentile"] = supported_percentile(len(self.ttft))
        self.info["mean_itl_p50_s"] = median(float(np.mean(v)) for v in self.gaps.values())
        self.info["limits"] = {"ttft_s": self.ttft_limit_s, "mean_itl_s": self.itl_limit_s,
                               "rate_per_s": self.rate}
        return {
            "itl_p50_s": median(gaps),
            "ttft_p50_s": median(self.ttft.values()),
        }

    def probe(self, budget: float) -> None:
        from repro.engine import KVSlot
        from repro.models.cache import KVCache

        each = budget / 4
        model, layer_metrics, counts = self.model, self.layer, self.cache_counts
        gaps = [g for values in self.gaps.values() for g in values]
        lookups = counts["hits"] + counts["misses"]
        prompt_positions = sum(len(a.prompt) for a in self.sent)
        layer_metrics["engine.queue_wait_p50_s"] = median(self.queue_wait)
        layer_metrics["engine.itl_with_prefill_p50_s"] = median(self.gaps_with_prefill or gaps)
        layer_metrics["engine.prefix_cache.hit_share"] = counts["hits"] / max(lookups, 1)
        layer_metrics["engine.prefix_cache.positions_saved_share"] = (
            counts["positions_saved"] / max(prompt_positions, 1)
        )
        layer_metrics["engine.prefix_cache.evictions"] = counts["evictions"]
        layer_metrics["engine.prefix_cache.match_s_p50"] = median(self.match_samples)
        layer_metrics["tail.ttft_p90_s"] = percentile(self.ttft.values(), 90)
        layer_metrics["tail.itl_p90_s"] = percentile(gaps, 90)
        layer_metrics["obs.overhead_share"] = self.overhead_share(self.pass_ttft_p50)

        # the prefix-cache hit path: a byte copy of the shared rows into a clean slot
        prompt = token_prompt(
            np.random.default_rng(0), self.prefix_len + sum(self.unique) // 2, model.config.vocab_size
        )
        capacity = model.config.max_positions
        donor, target = (KVSlot(i, model.num_layers, capacity) for i in range(2))
        model.logits_cached(prompt, 0, donor.caches)

        def copy():
            target.copy_prefix_from(donor, self.prefix_len)
            target.truncate(0)

        layer_metrics["engine.prefix_cache.copy_s_p50"] = probes.timed(copy, each)

        # models: an uncached prefill of one whole prompt, and one decode step after it
        cache = KVCache.empty(model.num_layers, capacity=len(prompt))
        layer_metrics.update(probes.decoder_step(model, len(prompt), each / 2))

        layer_metrics["models.prefill_s_p50"] = probes.cached_forward_seconds(
            model, cache.layers, prompt, 0, each
        )

