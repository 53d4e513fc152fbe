"""``encoder-forward``: the paper's own experiment (Fig. 4).

Closed loop, one client.  Each round sends one request to three deployment
variants — single-device ``model.forward``, ``execute_distributed`` on K
threads, ``execute_distributed`` on K forked processes over loopback TCP —
in an order rotated per round, so machine drift hits all three equally and
the speed-ups are ratios taken from the same seconds.  Big-GEMM compute is
split by position; one large All-Gather per layer; the runtime is launched
per request.  ``engine`` does no work here.
"""

from __future__ import annotations

import math
import resource
import time

import numpy as np

import probes
from harness import K, Lane
from inputs import digest, lane_rng, random_words
from stats import median, percentile, supported_percentile


def _config(scale: str):
    from repro.models.config import bert_large_config

    if scale == "full":  # F=1024, H=16: BERT-Large geometry, 4 of its 24 layers
        return bert_large_config().scaled(num_layers=4), 200
    return bert_large_config().scaled(
        num_layers=2, hidden_size=128, num_heads=4, ffn_dim=512, vocab_size=2000,
        max_positions=128, name="bert-canary",
    ), 40


class EncoderForwardLane(Lane):
    name = "encoder-forward"
    min_rounds = 4

    def setup(self) -> None:
        from repro.cluster.spec import ClusterSpec
        from repro.models.bert import BertModel
        from repro.systems.voltage import VoltageSystem

        config, words = _config(self.scale)
        self.model = BertModel(config, rng=np.random.default_rng(0))
        self.system = VoltageSystem(self.model, ClusterSpec.homogeneous(K))  # fp32 wire
        text = random_words(lane_rng(self.seed, self.name), words)
        self.ids = self.model.encode_text(text)  # 200 words + [CLS]/[SEP] -> N = 202
        self.info["input_sha256"] = digest(self.ids)
        self.info["n"] = int(self.ids.shape[0])
        ids, system = self.ids, self.system
        self.variants = {
            "single": lambda: (self.model.forward(ids), None),
            "threaded": lambda: system.execute_distributed(ids, runtime="threaded", overlap=False),
            "process": lambda: system.execute_distributed(ids, runtime="process", overlap=False),
        }
        self.samples: dict[str, list[float]] = {name: [] for name in self.variants}
        # the input never changes, so every variant must repeat its first output
        # bit for bit: keep that one, and per later round only whether it matched
        # (storing them all made peak RSS grow with the number of rounds)
        self.first: dict[str, np.ndarray] = {}
        self.repeats: dict[str, list[bool]] = {name: [] for name in self.variants}
        self.stats: dict[str, list] = {}

    def warm_up(self) -> None:
        for call in self.variants.values():
            call()

    def measure(self, seconds: float, tracer) -> None:
        if tracer is not None:  # ROADMAP's overlap item, interleaved with the blocking path
            self.variants["overlap"] = lambda: self.system.execute_distributed(
                self.ids, runtime="threaded", overlap=True
            )
            self.samples["overlap"], self.repeats["overlap"] = [], []
        names = list(self.variants)
        for index, spans in self.rounds(seconds, tracer):
            for offset in range(len(names)):
                name = names[(index + offset) % len(names)]
                self._request(name, f"{name}-{index}", spans)
        self.info["rounds"] = len(self.samples["single"])

    def _request(self, name: str, request: str, spans) -> None:
        self.attempted += 1
        began = time.perf_counter()
        try:
            if spans is not None:
                spans.open_request(request)
                with spans.child("execute_distributed" if name != "single" else "model.forward",
                                 request, variant=name):
                    output, stats = self.variants[name]()
                spans.close_request(request, began, time.perf_counter(), variant=name)
            else:
                output, stats = self.variants[name]()
        except Exception as exc:  # a failed request is counted, not fatal
            self.fail(f"{name} request raised {type(exc).__name__}: {exc}")
            self.samples[name].append(math.nan)  # keeps sample index == round index
            self.repeats[name].append(True)  # counted once, above
            return
        self.samples[name].append(time.perf_counter() - began)
        if stats is not None:
            self.stats[name] = stats
        self.repeats[name].append(np.array_equal(output, self.first.setdefault(name, output)))

    def check(self) -> None:
        from repro.verify.tolerances import outputs_close

        first = self.first
        if not {"single", "threaded", "process"} <= set(first):
            return  # a variant never completed: every request of it is already counted
        if not np.array_equal(first["threaded"], first["process"]):
            self.fail("threaded and process outputs differ", count=len(self.samples["process"]))
        elif not outputs_close(first["threaded"], first["single"], "float32"):
            self.fail("distributed output not close to single-device",
                      count=len(self.samples["threaded"]))
        if "overlap" in first and not np.array_equal(first["overlap"], first["threaded"]):
            self.fail("overlapped output differs from blocking", count=len(self.samples["overlap"]))
        for name, repeats in self.repeats.items():
            for index, same in enumerate(repeats):
                if not same:
                    self.fail(f"round {index}: {name} output differs from its first output")

    def end_to_end(self) -> dict[str, float]:
        p50 = {name: median(values) for name, values in self.samples.items()}
        self.info["samples"] = {name: len(values) for name, values in self.samples.items()}
        self.raw = {"samples": self.samples}
        self.info["supported_percentile"] = supported_percentile(len(self.samples["threaded"]))
        return {
            "forward_threaded_p50_s": p50["threaded"],
            "forward_process_p50_s": p50["process"],
            "speedup_threaded": self._speedup("threaded"),
            "speedup_process": self._speedup("process"),
        }

    def _speedup(self, name: str) -> float:
        """Median over the rounds of single-device time / variant time *of the
        same round*.  The single-device forward is one thread of big GEMMs and
        the host runs those at two speeds (0.21 s and 0.26 s per request, in
        stretches of a few rounds, about half the time each), so its median
        flips between the two from run to run and the ratio of the two medians
        moved 8-9% in one set of ten runs and 3% in the next, the paired ratio
        3-7% in four sets."""
        return median(
            single / variant for single, variant in zip(self.samples["single"], self.samples[name])
        )

    # -- per-layer -------------------------------------------------------------

    def probe(self, budget: float) -> None:
        from repro.cluster.process_runtime import ProcessRuntime
        from repro.cluster.runtime import ThreadedRuntime
        from repro.core.orders import attention_partition
        from repro.tensor import functional as F

        each = budget / 24  # share of the probe budget per timed call
        model, system, samples, layer_metrics = self.model, self.system, self.samples, self.layer
        config = model.config
        n, f, heads = self.info["n"], config.hidden_size, config.num_heads
        layer, executor = model.layers[0], system.executors[0]
        parts = system.scheme_for(n).positions(n)
        part = parts[0]
        p = part.length
        x = model.preprocess(self.ids)
        rng = np.random.default_rng(0)

        # tensor
        w = rng.standard_normal((f, 4 * f), dtype=np.float32)
        b = np.zeros(4 * f, dtype=np.float32)
        gemm = probes.timed(lambda: F.linear(x[:p], w, b), each)
        layer_metrics["tensor.gemm_gflops"] = 2.0 * p * f * 4 * f / gemm / 1e9
        scores = rng.standard_normal((heads, p, n), dtype=np.float32)
        layer_metrics["tensor.softmax_s"] = probes.timed(lambda: F.softmax(scores, axis=-1), each)

        # models
        encoder_layer = probes.timed(lambda: layer.forward(x), each)
        layer_metrics["models.encoder_layer_s"] = encoder_layer
        layer_metrics["models.qkv_s"] = probes.timed(lambda: layer.attention.qkv_projection(x[:p]), each)
        params, order = layer.attention.attention_params(), executor.select_order(n, p)
        layer_metrics["models.attention_s"] = probes.timed(
            lambda: attention_partition(x, part.start, part.stop, params, order), each
        )
        layer_metrics["models.ffn_s"] = probes.timed(lambda: layer.ffn(x[:p]), each)
        layer_metrics["models.norm_s"] = probes.timed(lambda: layer.ln1(x[:p]), each)
        prepost = probes.timed(
            lambda: model.postprocess(model.final_norm(model.preprocess(self.ids))), each
        )
        layer_metrics["models.prepost_s"] = prepost

        # core
        partition = probes.timed(lambda: executor.forward_partition(x, part), each)
        layer_metrics["core.partition_forward_s"] = partition
        layer_metrics["core.partition_efficiency"] = encoder_layer / (K * partition)
        orders = [
            ex.select_order(n, pt.length).is_reordered
            for index, ex in enumerate(system.executors)
            for pt in system.scheme_for(n, layer=index).positions(n) if pt.length
        ]
        layer_metrics["core.reordered_share"] = sum(orders) / len(orders)

        def plan():
            for index, ex in enumerate(system.executors):
                for pt in system.scheme_for(n, layer=index).positions(n):
                    ex.select_order(n, max(pt.length, 1))

        layer_metrics["core.plan_s"] = probes.timed(plan, each)

        # cluster
        threaded_launch = probes.launch_seconds(lambda: ThreadedRuntime(K), each)
        process_launch = probes.launch_seconds(lambda: ProcessRuntime(K), 2 * each)
        layer_metrics["cluster.threaded_launch_s"] = threaded_launch
        layer_metrics["cluster.process_launch_s"] = process_launch
        block = np.ascontiguousarray(x[:p])
        reps = 20
        layer_metrics["cluster.threaded_all_gather_large_s"] = probes.collective_seconds(
            ThreadedRuntime(K), block, "all_gather", reps)
        layer_metrics["cluster.process_all_gather_large_s"] = probes.collective_seconds(
            ProcessRuntime(K), block, "all_gather", reps)
        layer_metrics["cluster.ring_all_gather_large_s"] = probes.collective_seconds(
            ThreadedRuntime(K), block, "ring_all_gather", reps)
        encode, decode = probes.wire_gbps(block, each)
        layer_metrics["cluster.wire_encode_gbps"] = encode
        layer_metrics["cluster.wire_decode_gbps"] = decode
        threaded, process = self.stats["threaded"], self.stats["process"]
        layer_metrics["cluster.bytes_sent_per_request"] = sum(s.bytes_sent for s in threaded)
        layer_metrics["cluster.socket_bytes_per_request"] = sum(s.bytes_sent for s in process)
        layer_metrics["cluster.collective_calls_per_request"] = sum(s.collective_calls for s in threaded)
        layer_metrics["cluster.bytes_copied_per_request"] = sum(s.bytes_copied for s in threaded)
        layer_metrics["cluster.buffers_reused_per_request"] = sum(s.buffers_reused for s in threaded)
        layer_metrics["cluster.rank_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )

        # systems: request time not explained by launch + uncontended rank compute
        compute = prepost + config.num_layers * partition
        p50 = {name: median(values) for name, values in samples.items()}
        layer_metrics["systems.forward_single_p50_s"] = p50["single"]
        layer_metrics["systems.threaded_exposed_s"] = p50["threaded"] - threaded_launch - compute
        layer_metrics["systems.process_exposed_s"] = p50["process"] - process_launch - compute
        layer_metrics["systems.overlap_speedup"] = p50["threaded"] / p50["overlap"]
        layer_metrics["tail.forward_threaded_p90_s"] = percentile(samples["threaded"], 90)
        layer_metrics["tail.forward_process_p90_s"] = percentile(samples["process"], 90)
        layer_metrics["obs.overhead_share"] = self.overhead_share(samples["threaded"])
