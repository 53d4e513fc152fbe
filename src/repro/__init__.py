"""Voltage — distributed transformer inference for edge devices.

A full reproduction of *"When the Edge Meets Transformers: Distributed
Inference with Transformer Models"* (Hu & Li, ICDCS 2024), including:

- :mod:`repro.tensor` — a NumPy neural-network inference substrate;
- :mod:`repro.models` — BERT-Large, GPT-2 and ViT re-implementations;
- :mod:`repro.core` — the paper's contribution: position-wise layer
  partitioning with adaptive attention computation orders (Theorems 1–3,
  Algorithms 1–2);
- :mod:`repro.cluster` — a simulated multi-device edge cluster (device
  compute model, bandwidth/latency links, collectives, latency simulation
  and thread- and process-backed real execution runtimes);
- :mod:`repro.systems` — end-to-end inference systems: single-device,
  Voltage (plus adaptive and fault-tolerant variants, and the naive
  fixed-order partition as an order policy), tensor parallelism,
  distributed decode;
- :mod:`repro.serving` — arrival processes and served-request statistics
  for request streams;
- :mod:`repro.engine` / :mod:`repro.fleet` — the online engine (continuous
  batching, shedding) and multi-replica routing and autoscaling;
- :mod:`repro.bench` — the harness regenerating every figure and table of
  the paper's evaluation.

Quickstart::

    from repro.models import BertModel, tiny_config
    from repro.systems import VoltageSystem
    from repro.cluster import ClusterSpec

    model = BertModel(tiny_config(), num_classes=2)
    cluster = ClusterSpec.homogeneous(num_devices=4, gflops=5.0, bandwidth_mbps=500)
    system = VoltageSystem(model, cluster)
    result = system.run(model.encode_text("hello edge inference"))
    print(result.output, result.latency.total_seconds)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
