"""Voltage — Algorithm 2: position-partitioned distributed inference.

Per request (Fig. 3):

1. the terminal pre-processes and broadcasts the input features ``x``;
2. for every transformer layer, each device computes its position partition
   via Algorithm 1 (adaptive computation order), then all devices
   synchronise through a single All-Gather;
3. the final layer's partitions are sent to the terminal, which
   post-processes and answers the user.

What runs is spelled once, :func:`~repro.systems.base.voltage_layers`.
``run`` drives it over all ``K`` ranks with a host-side All-Gather (the
partition outputs really are computed with the partitioned executors and
reassembled) and attaches :func:`voltage_timeline` — the one shapes-only
spelling of the phase sequence above, priced with the calibrated
device/network models, which the figure sweeps call without weights.
``execute_distributed`` drives it on real concurrent ranks, one each, as
one command to a rank service, with byte accounting — used by the
integration tests to reconcile the analytic communication volumes.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro import obs
from repro.cluster.dynamics import SpeedTrace
from repro.cluster.runtime import CommStats
from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.core.complexity import prologue_flops
from repro.core.layer import OrderPolicy, PartitionedLayerExecutor
from repro.core.partition import Partition, PartitionScheme
from repro.core.planner import makespan_optimal_scheme
from repro.core.schedule import LayerSchedule
from repro.models.base import TransformerModel
from repro.models.config import TransformerConfig
from repro.systems.base import (
    InferenceResult, InferenceSystem, activation_bytes, terminal_phase, voltage_layers,
)

__all__ = ["VoltageSystem", "voltage_timeline"]


#: Supported activation wire encodings: name -> (bytes per element).
WIRE_DTYPES = {"float32": 4, "float16": 2, "int8": 1}
_INT8_MAX = 127


def voltage_timeline(
    config: TransformerConfig,
    n: int,
    cluster: ClusterSpec,
    scheme: PartitionScheme | LayerSchedule | None = None,
    policy: OrderPolicy | None = None,
    wire_itemsize: int = 4,
    overlap: bool = False,
    speeds: SpeedTrace | None = None,
    failures: Mapping[int, Sequence[int]] | None = None,
    detection_seconds: float = 0.0,
    pre_flops: int = 0,
    post_flops: int = 0,
) -> tuple[LatencyBreakdown, dict]:
    """The latency timeline of one Algorithm 2 request on ``cluster`` —
    shapes only, so it needs no weights.

    The single source of the Voltage phase sequence: :meth:`VoltageSystem.run`
    reports it over its own settings, and the figure sweeps call it over
    paper-scale configs.  ``scheme`` is one :class:`PartitionScheme` for
    every layer, a :class:`LayerSchedule`, or None for the paper's even 1/K
    split; each layer's partitions of the ``n`` positions are priced with
    ``config``'s shapes.  ``wire_itemsize`` prices compressed activation
    exchange (the input broadcast stays float32).  With ``overlap`` each
    inner All-Gather is charged only its *exposed* time
    ``max(0, comm - hideable)``, where the hideable compute is the next
    layer's own-partition Q projection (it needs only rows a device already
    holds) — the *minimum* over devices, a conservative bound: a device
    with an empty next partition hides nothing.

    Two inputs vary the devices from layer to layer (both None for the
    paper's setting).  ``speeds`` prices layer ``l``'s compute at the
    trace's speeds for step ``l`` (:meth:`SpeedTrace.cluster_at`).
    ``failures`` maps a layer to the devices that die just before it: each
    event adds one ``"detect failure of device(s) [...]"`` overhead phase of
    ``detection_seconds``, and from that layer on the All-Gather / gather go
    over the live ranks only, which must hold every position.

    Returns the breakdown plus the meta ``run()`` reports alongside it.
    """
    sim = ClusterSim(cluster)
    layer_parts = LayerSchedule.of(scheme, cluster.num_devices).layer_parts(n, config.num_layers)
    policy = policy if policy is not None else OrderPolicy()
    f, fh = config.hidden_size, config.head_dim
    orders: list[str] = []
    exposed_comm_per_layer: list[float] = []
    allgather_bytes = hidden_comm_s = 0.0
    failures = failures or {}
    dead: set[int] = set()

    latency = LatencyBreakdown()
    terminal_phase(latency, sim, "preprocess", pre_flops)
    latency.add("broadcast input", "comm", sim.broadcast(activation_bytes(n, f)))
    for index, parts in enumerate(layer_parts):
        if failures.get(index):
            # survivors notice the missing peer at the barrier: one
            # detection timeout per failure event (not per device)
            dying = sorted(failures[index])
            latency.add(
                f"detect failure of device(s) {dying}", "overhead", detection_seconds, layer=index
            )
            dead.update(dying)
        first = next((part for part in parts if part.length), parts[0])
        order = policy.order_for(n, max(first.length, 1), f, fh)
        orders.append("eq8" if order.is_reordered else "eq3")
        flops = [policy.layer_flops(config, n, part.length) for part in parts]
        layer_sim = sim if speeds is None else ClusterSim(speeds.cluster_at(index, cluster))
        latency.add("partition compute", "compute", layer_sim.compute_makespan(flops), layer=index)
        chunk_bytes = [
            activation_bytes(part.length, f, itemsize=wire_itemsize)
            for rank, part in enumerate(parts) if rank not in dead
        ]
        if index + 1 == len(layer_parts):
            # Algorithm 2 line 8: final partitions go to the terminal only
            latency.add("gather to terminal", "comm", sim.gather(chunk_bytes), layer=index)
            break
        # Algorithm 2 line 10: synchronise partitions across devices
        if overlap:
            hideable = min(
                device.compute_seconds(prologue_flops(part.length, f, config.num_heads, fh))
                for device, part in zip(cluster.devices, layer_parts[index + 1])
            )
            exposed, full = sim.all_gather_overlapped(chunk_bytes, hideable)
            latency.add(
                "all-gather (overlapped)", "comm", exposed, layer=index, hidden_s=full - exposed
            )
            hidden_comm_s += full - exposed
        else:
            exposed = sim.all_gather(chunk_bytes)
            latency.add("all-gather", "comm", exposed, layer=index)
        exposed_comm_per_layer.append(exposed)
        # the wire volume is unchanged by overlapping — only *when* the bytes
        # move relative to compute changes
        allgather_bytes += sum(chunk_bytes) - max(chunk_bytes)
    terminal_phase(latency, sim, "postprocess", post_flops)
    return latency, {
        "orders": orders,
        "allgather_bytes_per_device": allgather_bytes,
        "exposed_comm_per_layer": exposed_comm_per_layer,
        "hidden_comm_s": hidden_comm_s,
    }


class VoltageSystem(InferenceSystem):
    """The paper's system: position-wise partitioning with adaptive orders."""

    name = "voltage"

    def __init__(
        self,
        model: TransformerModel,
        cluster: ClusterSpec,
        scheme: PartitionScheme | str | None = None,
        policy: OrderPolicy | None = None,
        wire_dtype: str = "float32",
        overlap: bool = False,
    ):
        """Deploy ``model`` on ``cluster``.

        ``scheme`` may be a :class:`PartitionScheme`, the string ``"auto"``
        (makespan-optimal ratios for heterogeneous clusters, planned per
        request length), or None for the paper's even 1/K split.

        ``wire_dtype`` implements the paper's closing future-work item
        ("further optimizations to communication protocols"): activations
        cross the network as float32 (default, the paper's setting),
        float16 (half the All-Gather volume) or symmetric int8 (a quarter).
        Compression is *really applied* — partitions are encoded, decoded,
        and the (small) numerical error propagates into the outputs — so
        the accuracy cost of the bandwidth saving is measurable, not
        assumed.

        ``overlap`` hides each inner All-Gather behind next-layer compute a
        device can run on rows it already holds (the own-partition Q
        projection).  :meth:`run` models it as per-layer
        ``exposed = max(0, comm - hideable)`` and :meth:`execute_distributed`
        really streams chunks off the ring — bit-identical outputs either
        way.
        """
        super().__init__(model, cluster)
        if isinstance(scheme, (PartitionScheme, LayerSchedule)) and (
            scheme.num_devices != cluster.num_devices
        ):
            raise ValueError(
                f"scheme covers {scheme.num_devices} devices, cluster has {cluster.num_devices}"
            )
        if wire_dtype not in WIRE_DTYPES:
            raise ValueError(
                f"wire_dtype must be one of {sorted(WIRE_DTYPES)}, got {wire_dtype!r}"
            )
        self._scheme = scheme
        self.policy = policy if policy is not None else OrderPolicy()
        self.overlap = overlap
        self.wire_dtype = wire_dtype
        self.wire_itemsize = WIRE_DTYPES[wire_dtype]
        self.executors = [
            PartitionedLayerExecutor(layer, policy=self.policy) for layer in model.layers
        ]

    def _encode_for_wire(self, partition_output: np.ndarray) -> np.ndarray:
        """Apply the configured lossy wire encoding to one partition."""
        if self.wire_dtype == "float32" or partition_output.size == 0:
            return partition_output
        dtype = partition_output.dtype
        if self.wire_dtype == "float16":
            return partition_output.astype(np.float16).astype(dtype)
        # int8: symmetric, one scale per column (last axis), s = max|x| / 127
        columns = tuple(range(partition_output.ndim - 1))
        absmax = np.max(np.abs(partition_output), axis=columns)
        scale = np.where(absmax > 0, absmax / _INT8_MAX, 1.0).astype(np.float32)
        q = np.clip(np.round(partition_output / scale), -_INT8_MAX, _INT8_MAX).astype(np.int8)
        return (q.astype(dtype) * scale).astype(dtype)

    def schedule(self, n: int) -> LayerSchedule:
        """The partition schedule a length-``n`` request runs under.

        With a :class:`LayerSchedule`, different layers may use different
        schemes (Section V-B's penalty-free per-layer flexibility); every
        other specifier is one scheme for every layer.
        """
        scheme = self._scheme
        if scheme == "auto":
            scheme = makespan_optimal_scheme(
                self.model.config, n, self.cluster.device_gflops, policy=self.policy
            )
        elif scheme is not None and not isinstance(scheme, (PartitionScheme, LayerSchedule)):
            raise ValueError(f"unsupported scheme specifier {scheme!r}")
        return LayerSchedule.of(scheme, self.k)

    def scheme_for(self, n: int, layer: int = 0) -> PartitionScheme:
        """The scheme ``layer`` runs a length-``n`` request under."""
        return self.schedule(n).scheme_for_layer(layer)

    def layer_parts(self, n: int) -> list[list[Partition]]:
        """Every layer's per-device partitions of a length-``n`` request."""
        return self.schedule(n).layer_parts(n, len(self.executors))

    def _timeline_inputs(self) -> dict:
        """:func:`voltage_timeline`'s ``speeds`` / ``failures`` inputs for this
        deployment: neither for plain Voltage."""
        return {}

    def _meta(self, n: int) -> dict:
        """What ``run()`` reports beyond the timeline's meta."""
        return {}

    # -- distributed autoregressive decode (position-sharded KV cache) ---------

    def generate_distributed(
        self, prompt_ids, max_new_tokens: int = 8, runtime=None, timeout=None,
        attention: str = "gathered",
    ):
        """Greedy decode on ``K`` ranks; see :mod:`repro.systems.decode`.

        ``attention="gathered"`` reassembles the full K/V per step
        (bit-identical to ``generate_cached``); ``attention="distributed"``
        attends per-shard with a log-sum-exp combine (exact up to float
        tolerance, per-step wire volume independent of sequence length).
        """
        from repro.systems.decode import generate_distributed

        return generate_distributed(
            self, prompt_ids, max_new_tokens=max_new_tokens, runtime=runtime,
            timeout=timeout, attention=attention,
        )

    def run_decode(self, prompt_ids, max_new_tokens: int = 8, attention: str = "gathered"):
        """Sharded decode on a resident decode session (threaded ranks), with a
        simulated per-token timeline; see :func:`repro.systems.decode.run_decode`."""
        from repro.systems.decode import run_decode

        return run_decode(
            self, prompt_ids, max_new_tokens=max_new_tokens, attention=attention
        )

    # -- host-emulated execution with simulated latency ------------------------

    def run(self, raw) -> InferenceResult:
        x, terminal = self._preprocess(raw)
        n = x.shape[0]
        schedule = self.schedule(n)
        latency, comm_meta = voltage_timeline(
            self.model.config, n, self.cluster, scheme=schedule, policy=self.policy,
            wire_itemsize=self.wire_itemsize, overlap=self.overlap,
            **self._timeline_inputs(), **terminal,
        )
        layer_parts = schedule.layer_parts(n, len(self.executors))
        hidden = voltage_layers(
            x, [executor.forward_partition for executor in self.executors], layer_parts,
            encode=self._encode_for_wire,
        )
        # a LayerSchedule may change the scheme per layer (Section V-B); the
        # meta must describe what actually ran, not just layer 0's ratios
        ratios_per_layer = [
            schedule.scheme_for_layer(index).ratios for index in range(len(layer_parts))
        ]
        uniform = all(r == ratios_per_layer[0] for r in ratios_per_layer)
        return self._result(
            hidden, latency,
            scheme=ratios_per_layer[0] if uniform else ratios_per_layer,
            scheme_uniform=uniform,
            scheme_per_layer=ratios_per_layer,
            wire_dtype=self.wire_dtype,
            overlap=self.overlap,
            **comm_meta,
            **self._meta(n),
        )

    # -- real distributed execution (threads or processes) ----------------------

    def execute_distributed(
        self, raw, runtime=None, overlap: bool | None = None
    ) -> tuple[np.ndarray, list[CommStats]]:
        """Run Algorithm 2 on real concurrent workers.

        ``runtime`` selects the backend: ``None``/``"threaded"`` runs one
        thread per rank over in-process queues, ``"process"`` runs one OS
        process per rank over loopback TCP sockets
        (:class:`~repro.cluster.process_runtime.ProcessRuntime` — the
        paper's deployment shape), or pass an already-built runtime.  The
        worker body is identical either way, so outputs are bit-identical
        across backends.

        The embedded request is one command to a rank service, closed after
        it (:meth:`~repro.systems.base.InferenceSystem._execute`).  Every
        worker holds the full model replica (Voltage's deployment
        assumption) and runs :func:`~repro.systems.base.voltage_layers` —
        the body :meth:`run` runs — over its own rank: it computes its
        partition per layer, applies the configured wire encoding, and
        All-Gathers with the others.  Returns the post-processed output and
        per-worker communication statistics — the integration tests check
        the output matches :meth:`run` *bit-for-bit for every wire_dtype*
        and the byte counters match Section V-C.

        With ``overlap`` (default: the system's ``overlap`` setting), the
        inner All-Gathers go through the nonblocking ring: each worker
        launches :meth:`~repro.cluster.runtime.WorkerContext.all_gather_async`
        after encoding its partition, then consumes chunks as they come off
        the ring — copying rows into the next layer's input, applying the
        next layer's (row-wise) ln1, and firing the own-partition Q
        projection as soon as its rows are complete — while the remaining
        ring steps are still in flight.  Only bitwise row-safe work is
        streamed (see INTERNALS §11), so the output matches the blocking
        path bit-for-bit for every wire_dtype.
        """
        if overlap is None:
            overlap = self.overlap
        x0 = self.model.preprocess(raw)
        n, feat = x0.shape
        executors = self.executors
        layer_parts = self.layer_parts(n)
        tracer = obs.current_tracer()

        def stream_next_layer(ctx, handle, index):
            """Consume ring chunks as they arrive; pre-run next-layer work.

            Returns the assembled gather and, for the next layer's forward,
            the per-chunk ln1 of it (pre-LN layers only) as ``normed`` and
            the own-partition Q projection as ``qp`` — all bitwise identical
            to what the blocking path would compute from the assembled
            array, because every streamed op is row-wise (or an
            identically-shaped GEMM on identical operand values).
            """
            from repro.tensor import functional as F

            spans = [(p.start, p.stop) for p in layer_parts[index]]
            next_exec = executors[index + 1]
            own = layer_parts[index + 1][ctx.rank]
            pre_ln = next_exec.config.norm_style != "post"
            x_buf = np.empty((n, feat), dtype=x0.dtype)
            normed_buf = np.empty_like(x_buf) if pre_ln else None
            arrived = [False] * ctx.world_size
            qp = None
            params = next_exec.layer.attention.attention_params()
            with tracer.span(
                "overlap stream", cat="runtime", kind="compute",
                track=f"rank {ctx.rank}", device=ctx.rank, layer=index,
            ):
                for src in handle.arrival_order():
                    chunk = handle.chunk(src)
                    lo, hi = spans[src]
                    if hi > lo:
                        x_buf[lo:hi] = chunk
                        if pre_ln:
                            normed_buf[lo:hi] = next_exec.layer.ln1(x_buf[lo:hi])
                    arrived[src] = True
                    if qp is None and own.length and _covered(arrived, spans, own):
                        base = normed_buf if pre_ln else x_buf
                        qp = F.linear(base[own.start : own.stop], params.wq, params.bq)
            # every chunk was consumed, so the ring is complete — no need to
            # wait() (which would also concatenate a result we already built)
            ctx._add_stats(bytes_copied=x_buf.nbytes)
            return x_buf, {"normed": normed_buf, "qp": qp}

        def rank_forward(ctx, x: np.ndarray) -> np.ndarray:
            def exchange(index, outputs):
                (out,) = outputs  # a rank owns exactly its own partition
                if overlap and index + 1 < len(layer_parts) and ctx.world_size > 1:
                    return stream_next_layer(ctx, ctx.all_gather_async(out, axis=0), index)
                return ctx.all_gather(out, axis=0), {}

            return voltage_layers(
                x, [executor.forward_partition for executor in executors], layer_parts,
                ranks=[ctx.rank], exchange=exchange, encode=self._encode_for_wire,
            )

        return self._execute(rank_forward, x0, runtime)


def _covered(arrived: list[bool], spans: list[tuple[int, int]], part) -> bool:
    """True once every chunk overlapping ``part``'s rows has arrived."""
    for flag, (lo, hi) in zip(arrived, spans):
        if not flag and lo < part.stop and hi > part.start:
            return False
    return True
