"""What-if exploration of an edge cluster design space — simulation only.

Uses each protocol's weight-free latency timeline (the one its system's
``run()`` reports and the figure benchmarks sweep, so it needs only the
model's config) to answer deployment questions for full-scale BERT-Large
without instantiating 1.3 GB of weights:

- How many devices are worth adding at my bandwidth?
- At what bandwidth does each strategy start paying off?

Run:
    python examples/edge_cluster_simulation.py
    python examples/edge_cluster_simulation.py --bandwidth 100
"""

import argparse

from repro.bench.workloads import paper_workloads
from repro.cluster import paper_cluster
from repro.systems.single_device import single_device_timeline
from repro.systems.tensor_parallel import tensor_parallel_timeline
from repro.systems.voltage import voltage_timeline


def seconds(timeline, workload, cluster, **flops) -> float:
    """End-to-end seconds of ``timeline`` over ``workload``'s shapes."""
    latency, _ = timeline(workload.config, workload.n, cluster, **flops)
    return latency.total_seconds


def sweep_devices(bandwidth: float) -> None:
    workload = paper_workloads()["bert"]
    print(f"\nBERT-Large latency (s) vs device count at {bandwidth:g} Mbps:")
    print(f"{'K':>3s} {'voltage':>9s} {'tensor-par':>11s}")
    single = seconds(
        single_device_timeline, workload, paper_cluster(1, bandwidth),
        post_flops=workload.post_flops,
    )
    print(f"{1:>3d} {single:>9.3f} {single:>11.3f}   <- single device")
    for k in (2, 3, 4, 5, 6, 8):
        cluster = paper_cluster(k, bandwidth)
        kwargs = dict(pre_flops=workload.pre_flops, post_flops=workload.post_flops)
        v = seconds(voltage_timeline, workload, cluster, **kwargs)
        t = seconds(tensor_parallel_timeline, workload, cluster, **kwargs)
        marks = " <- best" if v < single else ""
        print(f"{k:>3d} {v:>9.3f} {t:>11.3f}{marks}")


def find_crossovers() -> None:
    workload = paper_workloads()["bert"]
    print("\nminimum bandwidth (Mbps) at which each strategy beats single device (K=6):")
    for name, timeline in (("Voltage", voltage_timeline),
                           ("Tensor parallelism", tensor_parallel_timeline)):
        crossover = None
        for bandwidth in range(100, 3100, 100):
            cluster = paper_cluster(6, bandwidth)
            single = seconds(
                single_device_timeline, workload, cluster, post_flops=workload.post_flops
            )
            distributed = seconds(timeline, workload, cluster, post_flops=workload.post_flops)
            if distributed < single:
                crossover = bandwidth
                break
        print(f"  {name:>20s}: {crossover if crossover else '>3000'} Mbps")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bandwidth", type=float, default=500.0)
    args = parser.parse_args()
    sweep_devices(args.bandwidth)
    find_crossovers()


if __name__ == "__main__":
    main()
