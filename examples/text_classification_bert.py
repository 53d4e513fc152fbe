"""The paper's text-classification workload: BERT on a 200-word input.

Two parts:

1. *Real execution* — a BERT model (BERT-Large architecture, with the layer
   count configurable so the demo is fast) classifies a random 200-word
   string through Voltage's distributed protocol, including the threaded
   runtime with per-device traffic counters.

2. *Full-scale latency projection* — the weight-free timelines sweep device
   counts for the real 24-layer BERT-Large, regenerating the Fig. 4(a)
   curve on your terminal.

Run:
    python examples/text_classification_bert.py            # fast (4 layers)
    python examples/text_classification_bert.py --layers 24  # full-depth real run
"""

import argparse

import numpy as np

from repro.bench.workloads import paper_workloads, random_text
from repro.cluster import ClusterSpec, paper_cluster
from repro.models import BertModel, bert_large_config
from repro.systems import VoltageSystem
from repro.systems.single_device import single_device_timeline
from repro.systems.voltage import voltage_timeline


def run_real_inference(num_layers: int, num_devices: int) -> None:
    config = bert_large_config().scaled(num_layers=num_layers)
    print(f"building BERT ({num_layers} layers, F={config.hidden_size}) ...")
    model = BertModel(config, num_classes=2, rng=np.random.default_rng(0))
    cluster = ClusterSpec.homogeneous(num_devices, bandwidth_mbps=500)
    system = VoltageSystem(model, cluster)

    text = random_text(200)
    token_ids = model.encode_text(text)
    print(f"classifying a {len(text.split())}-word string -> {len(token_ids)} tokens")

    result = system.run(token_ids)
    prediction = int(np.argmax(result.output))
    print(
        f"prediction: class {prediction}; simulated latency "
        f"{result.total_seconds:.3f} s on {num_devices} devices "
        f"({result.latency.comm_fraction:.0%} communication)"
    )
    print(f"attention orders chosen per layer: {result.meta['orders']}")

    print("\nrunning the same request on REAL concurrent workers ...")
    output, stats = system.execute_distributed(token_ids)
    assert np.allclose(output, result.output, atol=1e-4)
    mb = stats[0].bytes_received / 1e6
    print(f"threaded output matches; each worker received {mb:.2f} MB "
          f"over {stats[0].collective_calls} All-Gathers")


def project_full_scale() -> None:
    workload = paper_workloads()["bert"]
    single = single_device_timeline(
        workload.config, workload.n, paper_cluster(1), post_flops=workload.post_flops
    )[0].total_seconds
    print(f"\nFull BERT-Large (24 layers) latency projection at 500 Mbps:")
    print(f"  single device: {single:.3f} s")
    for k in range(2, 7):
        latency = voltage_timeline(
            workload.config, workload.n, paper_cluster(k), post_flops=workload.post_flops
        )[0].total_seconds
        print(f"  Voltage, K={k}: {latency:.3f} s  ({1 - latency / single:+.1%} vs single)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layers", type=int, default=4,
                        help="transformer layers for the real run (24 = full BERT-Large)")
    parser.add_argument("--devices", type=int, default=4)
    args = parser.parse_args()

    run_real_inference(args.layers, args.devices)
    project_full_scale()


if __name__ == "__main__":
    main()
