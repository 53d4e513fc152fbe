"""Inference that survives stragglers and device failures.

Voltage's replicate-everything design (Section V-C) has two consequences
the paper doesn't exploit, both demonstrated here on one request:

1. **stragglers** — a device suddenly slowed 4× (foreground app, thermal
   throttling) stalls the static even split at every barrier; the adaptive
   planner notices within a layer or two and shifts positions away;
2. **failures** — a device dying mid-inference loses nothing: every survivor
   holds the full weights and the full layer input, so the request finishes
   with the *exact same output*, just a bit later.

Run:
    python examples/resilient_inference.py
"""

import numpy as np

from repro.cluster import ClusterSpec, spike_trace
from repro.models import BertModel, tiny_config
from repro.systems import AdaptiveVoltageSystem, FaultTolerantVoltageSystem, VoltageSystem


def straggler_story(model, cluster, ids) -> None:
    print("\n=== straggler: device 0 slows 4x for the whole request ===")
    trace = spike_trace(4, model.num_layers, victim=0, slowdown=4.0)
    for mode in ("static", "dynamic", "oracle"):
        system = AdaptiveVoltageSystem(model, cluster, trace=trace, mode=mode)
        result = system.run(ids)
        first = result.meta["scheme_per_layer"][0]
        last = result.meta["scheme_per_layer"][-1]
        print(
            f"  {mode:>8s}: compute makespan {result.latency.compute_seconds * 1e3:7.1f} ms"
            f"   device-0 share {first[0]:.2f} -> {last[0]:.2f}"
        )
    print("  (dynamic learns the straggler from observed layer times; oracle knows it)")


def failure_story(model, cluster, ids) -> None:
    print("\n=== failure: device 2 dies before layer 3, device 0 before layer 6 ===")
    healthy = VoltageSystem(model, cluster).run(ids)
    system = FaultTolerantVoltageSystem(
        model, cluster, failures={2: 3, 0: 6}, detection_timeout_seconds=0.2
    )
    result = system.run(ids)
    assert np.array_equal(
        np.argmax(result.output), np.argmax(healthy.output)
    ), "prediction changed!"
    np.testing.assert_allclose(result.output, healthy.output, atol=1e-5)
    print(f"  healthy run:   {healthy.total_seconds * 1e3:7.1f} ms on 4 devices")
    print(f"  with failures: {result.total_seconds * 1e3:7.1f} ms, "
          f"survivors {result.meta['survivors']}, "
          f"events {result.meta['failure_events']}")
    print("  outputs are identical — survivors re-partition with zero state loss,")
    print("  because every device holds full weights and the full layer input.")


def main() -> None:
    model = BertModel(
        tiny_config(hidden_size=64, num_heads=8, num_layers=8, ffn_dim=128),
        num_classes=2,
        rng=np.random.default_rng(0),
    )
    cluster = ClusterSpec.homogeneous(4, gflops=0.05, bandwidth_mbps=500)
    ids = model.encode_text("resilient distributed inference on flaky edge devices " * 2)
    print(f"request: {len(ids)} tokens, {model.num_layers}-layer encoder, 4 devices")
    straggler_story(model, cluster, ids)
    failure_story(model, cluster, ids)


if __name__ == "__main__":
    main()
