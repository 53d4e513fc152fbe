"""The common interface of all inference systems.

A *system* deploys a :class:`~repro.models.base.TransformerModel` on a
:class:`~repro.cluster.spec.ClusterSpec` and serves single requests
(batch size 1, the edge setting the paper targets).  ``run()`` returns both:

- the **real output**, produced by executing the system's exact distributed
  protocol (host-emulated, bit-faithful to what the devices would compute);
- the **simulated latency** as a per-phase :class:`LatencyBreakdown`, using
  the calibrated device/network cost models.

The split lets the test-suite assert numerical equivalence across systems
while the benchmarks sweep latency over device counts and bandwidths.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.collectives import all_gather_arrays
from repro.cluster.runtime import CommStats
from repro.cluster.service import serve_once
from repro.cluster.simulator import ClusterSim
from repro.cluster.spec import ClusterSpec
from repro.cluster.timeline import LatencyBreakdown
from repro.models.base import TransformerModel
from repro.obs.metrics import get_registry
from repro.obs.tracer import current_tracer

__all__ = ["InferenceResult", "InferenceSystem", "activation_bytes", "host_all_gather",
           "terminal_phase", "voltage_layers"]


def activation_bytes(n: int, f: int, itemsize: int = 4) -> float:
    """Size of an ``(N, F)`` float32 activation on the wire."""
    return float(n) * f * itemsize


def terminal_phase(latency: LatencyBreakdown, sim: ClusterSim, stage: str, flops: int) -> None:
    """Charge the terminal's ``"preprocess"`` / ``"postprocess"`` stage."""
    latency.add(f"{stage} (terminal)", "compute", sim.terminal_compute(flops))


def host_all_gather(index: int, outputs: list[np.ndarray]) -> tuple[np.ndarray, dict]:
    """The host emulation's exchange for :func:`voltage_layers`: owning
    every rank, the All-Gather is a rank-order concatenation, and nothing of
    the next layer is computed ahead."""
    return all_gather_arrays(outputs), {}


def voltage_layers(
    x: np.ndarray, forwards, layer_parts, ranks=None, exchange=host_all_gather, encode=None,
) -> np.ndarray:
    """Algorithm 2's layer loop — the one Voltage rank body — over the ranks
    its caller owns (default: all of them).

    Every layer, each owned rank computes its partition
    (``forwards[index](x, part, **ahead)``) and wire-encodes it with
    ``encode`` — the one place the lossy wire encoding is applied — and
    ``exchange(index, outputs)`` turns the owned ranks' outputs into
    ``(x, ahead)``: the next layer's full input and keyword arguments for its
    forwards that the exchange already computed.  ``run()`` owns every rank
    and exchanges with :func:`host_all_gather`; a runtime rank owns one and
    exchanges with ``ctx.all_gather``, or with the ring stream that also
    hands the next layer ``normed``/``qp`` (``VoltageSystem.
    execute_distributed``).
    """
    tracer = current_tracer()
    ranks = range(len(layer_parts[0])) if ranks is None else ranks
    ahead: dict = {}
    for index, (forward, parts) in enumerate(zip(forwards, layer_parts)):
        outputs = []
        for rank in ranks:
            with tracer.span(
                "partition compute", cat="runtime", kind="compute",
                track=f"rank {rank}", device=rank, layer=index,
            ):
                output = forward(x, parts[rank], **ahead)
                outputs.append(output if encode is None else encode(output))
        x, ahead = exchange(index, outputs)
    return x


def _digest(hidden: np.ndarray) -> bytes:
    """A rank's final hidden state, shape and dtype included, as a SHA-256
    digest — what the cross-rank check compares instead of the state."""
    digest = hashlib.sha256(f"{hidden.dtype.str}{hidden.shape}".encode())
    digest.update(np.ascontiguousarray(hidden))
    return digest.digest()


@dataclass
class InferenceResult:
    """Output + latency + metadata for one served request."""

    output: np.ndarray
    latency: LatencyBreakdown
    meta: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return self.latency.total_seconds


class InferenceSystem:
    """Base class: holds the model, the cluster, and the cost helper."""

    name = "abstract"

    def __init__(self, model: TransformerModel, cluster: ClusterSpec):
        self.model = model
        self.cluster = cluster
        self.sim = ClusterSim(cluster)

    @property
    def k(self) -> int:
        return self.cluster.num_devices

    def run(self, raw) -> InferenceResult:
        """Serve one request end-to-end."""
        raise NotImplementedError

    def latency_seconds(self, raw) -> float:
        """Convenience wrapper for sweeps that only need the scalar."""
        return self.run(raw).total_seconds

    def traced_run(self, raw) -> InferenceResult:
        """:meth:`run` inside a wall-clock request span, with per-system
        request metrics (count + modeled-latency histogram) recorded into
        the default registry.  The phase/sim spans emitted during ``run``
        nest under the request span's timeline in an exported trace."""
        with current_tracer().span(
            f"{self.name}.run", cat="system", kind="request", system=self.name
        ) as span:
            result = self.run(raw)
            span.set(n=result.meta.get("n"), modeled_seconds=result.total_seconds)
        registry = get_registry()
        registry.counter("system.requests_total", system=self.name).inc()
        registry.histogram("system.modeled_latency_seconds", system=self.name).observe(
            result.total_seconds
        )
        return result

    # -- real distributed execution -------------------------------------------

    def _execute(self, rank_forward, x, runtime) -> tuple[np.ndarray, list[CommStats]]:
        """``execute_distributed``'s one path: the embedded request ``x`` is
        the one command of a rank service, closed after it
        (:func:`~repro.cluster.service.serve_once`).

        Every rank runs ``rank_forward(ctx, x)`` — the protocol's rank body
        over its own rank.  Rank 0 replies its final hidden state; every rank
        replies a digest of its own, and all of them must agree.  Returns the
        post-processed output and the ranks' ``CommStats``.
        """
        model = self.model

        def serve(ctx):
            def forward(x):
                hidden = rank_forward(ctx, x)
                return _digest(hidden), hidden if ctx.rank == 0 else None

            return {"forward": forward}

        replies, stats = serve_once(serve, self.k, runtime, "forward", x)
        digest, hidden = replies[0]
        for rank, (other, _) in enumerate(replies):
            if other != digest:
                raise AssertionError(f"rank {rank}'s final hidden state differs from rank 0's")
        return model.postprocess(model.final_norm(hidden)), stats

    # -- shared terminal-side stages -----------------------------------------

    def _preprocess(self, raw) -> tuple[np.ndarray, dict]:
        """The embedded request and the terminal FLOPs its timeline charges."""
        x = self.model.preprocess(raw)
        n = x.shape[0]
        flops = {"pre_flops": self.model.preprocess_flops(n),
                 "post_flops": self.model.postprocess_flops(n)}
        return x, flops

    def _result(self, hidden: np.ndarray, latency: LatencyBreakdown, **meta) -> InferenceResult:
        """Post-process the final hidden states into the request's result."""
        output = self.model.postprocess(self.model.final_norm(hidden))
        meta = {"system": self.name, "n": hidden.shape[0], "devices": self.k, **meta}
        return InferenceResult(output=output, latency=latency, meta=meta)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(model={self.model.config.name!r}, "
            f"devices={self.k}, bandwidth={self.cluster.network.bandwidth_mbps:g} Mbps)"
        )
