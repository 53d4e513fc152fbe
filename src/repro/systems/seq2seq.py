"""Distributed seq2seq inference: Voltage across encoder AND decoder stacks.

Extends Algorithm 2 to the encoder–decoder architecture:

1. the terminal embeds the source and broadcasts it; encoder layers run
   position-partitioned with an All-Gather each — after the last one every
   device holds the full memory;
2. the terminal embeds the target prefix and broadcasts it; decoder layers
   run position-partitioned (self-attention causal, cross-attention against
   the replicated memory) with an All-Gather each;
3. only the device owning the *last* target position ships its row to the
   terminal, which applies the generator head.

The memory is never re-communicated after the encoder finishes — replicated
weights plus the encoder's final All-Gather give every device everything
cross-attention needs, which is what makes the decoder partition free of
extra traffic.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core.layer import PartitionedLayerExecutor
from repro.core.partition import PartitionScheme
from repro.models.seq2seq import PartitionedDecoderLayerExecutor, Seq2SeqTransformer
from repro.systems.base import InferenceResult, activation_bytes, emulate_partitioned_layers

__all__ = ["Seq2SeqVoltageSystem"]


class Seq2SeqVoltageSystem:
    """Voltage for encoder–decoder models (see module docstring)."""

    name = "voltage-seq2seq"

    def __init__(
        self,
        model: Seq2SeqTransformer,
        cluster: ClusterSpec,
        scheme: PartitionScheme | None = None,
    ):
        if scheme is not None and scheme.num_devices != cluster.num_devices:
            raise ValueError(
                f"scheme covers {scheme.num_devices} devices, cluster has "
                f"{cluster.num_devices}"
            )
        self.model = model
        self.cluster = cluster
        self.sim = ClusterSim(cluster)
        self.scheme = scheme if scheme is not None else PartitionScheme.even(
            cluster.num_devices
        )
        self.encoder_executors = [PartitionedLayerExecutor(l) for l in model.encoder]
        self.decoder_executors = [PartitionedDecoderLayerExecutor(l) for l in model.decoder]

    @property
    def k(self) -> int:
        return self.cluster.num_devices

    def _distribute_stack(
        self,
        x: np.ndarray,
        latency: LatencyBreakdown,
        stage: str,
        flops_fn,
        forward_fn,
        num_layers: int,
        final_gather_rows: int | None = None,
    ) -> np.ndarray:
        """Price either stack's partition/compute/All-Gather loop (stage-
        prefixed phases; the decoder's last hop ships only the needed rows),
        then host-emulate it."""
        n, f = x.shape
        parts = self.scheme.positions(n)
        chunk_bytes = [activation_bytes(part.length, f) for part in parts]
        for index in range(num_layers):
            flops = [flops_fn(index, n, part.length) if part.length else 0 for part in parts]
            latency.add(f"{stage} partition compute", "compute",
                        self.sim.compute_makespan(flops), layer=index)
            if index + 1 == num_layers and final_gather_rows is not None:
                # only the needed rows travel to the terminal
                latency.add(f"{stage} send rows to terminal", "comm",
                            self.sim.point_to_point(activation_bytes(final_gather_rows, f)),
                            layer=index)
            else:
                latency.add(f"{stage} all-gather", "comm",
                            self.sim.all_gather(chunk_bytes), layer=index)
        return emulate_partitioned_layers(x, forward_fn, [parts] * num_layers)

    def run(self, raw) -> InferenceResult:
        """``(src_ids, tgt_ids)`` → next-token logits + latency breakdown."""
        src_ids, tgt_ids = raw
        model = self.model
        latency = LatencyBreakdown()
        cfg = model.config
        f = cfg.hidden_size

        src_x = model.src_embeddings(np.asarray(src_ids))
        latency.add("embed source (terminal)", "compute", 0.0)
        latency.add("broadcast source", "comm",
                    self.sim.broadcast(activation_bytes(src_x.shape[0], f)))

        memory = self._distribute_stack(
            src_x, latency, "encoder",
            flops_fn=lambda i, n, p: self.encoder_executors[i].partition_flops(n, p),
            forward_fn=lambda i, x, part: self.encoder_executors[i].forward_partition(x, part),
            num_layers=len(self.encoder_executors),
        )

        tgt_x = model.tgt_embeddings(np.asarray(tgt_ids))
        n_mem = memory.shape[0]
        latency.add("broadcast target prefix", "comm",
                    self.sim.broadcast(activation_bytes(tgt_x.shape[0], f)))

        hidden = self._distribute_stack(
            tgt_x, latency, "decoder",
            flops_fn=lambda i, n, p: self.decoder_executors[i].partition_flops(n, n_mem, p),
            forward_fn=lambda i, x, part: self.decoder_executors[i].forward_partition(
                x, memory, part
            ),
            num_layers=len(self.decoder_executors),
            final_gather_rows=1,
        )

        logits = model.generator(hidden[-1])
        latency.add("generator head (terminal)", "compute",
                    self.sim.terminal_compute(f * cfg.vocab_size))
        return InferenceResult(
            output=logits,
            latency=latency,
            meta={
                "system": self.name,
                "n_src": src_x.shape[0],
                "n_tgt": tgt_x.shape[0],
                "devices": self.k,
            },
        )

    def single_device_latency(self, n_src: int, n_tgt: int) -> float:
        """Reference: the whole model on the first device (for speed-up)."""
        cfg = self.model.config
        f = cfg.hidden_size
        encoder = cfg.num_layers * self.encoder_executors[0].full_flops(n_src)
        decoder = sum(
            executor.partition_flops(n_tgt, n_src, n_tgt)
            for executor in self.decoder_executors
        )
        head = f * cfg.vocab_size
        device = self.cluster.devices[0]
        wire = self.sim.point_to_point(activation_bytes(n_src, f))
        return device.compute_seconds(encoder + decoder + head) + 2 * wire
