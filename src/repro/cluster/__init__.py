"""Simulated multi-device edge cluster.

Substitutes the paper's six-VM Compute-Canada testbed (see DESIGN.md):

- :mod:`repro.cluster.device` — per-device compute model + host calibration;
- :mod:`repro.cluster.network` — α–β bandwidth/latency link model;
- :mod:`repro.cluster.collectives` — All-Gather / All-Reduce / broadcast
  cost models and the matching array operations;
- :mod:`repro.cluster.spec` — cluster construction (homogeneous /
  heterogeneous, bandwidth sweeps);
- :mod:`repro.cluster.simulator` — bulk-synchronous cost helpers;
- :mod:`repro.cluster.timeline` — per-phase latency breakdowns;
- :mod:`repro.cluster.runtime` — thread-backed real execution with byte
  accounting, proving protocol correctness;
- :mod:`repro.cluster.process_runtime` — process-backed execution over real
  loopback TCP sockets, the paper's deployment shape.
"""

from repro.cluster.device import PAPER_EDGE_DEVICE_GFLOPS, DeviceSpec, calibrate_matmul_gflops
from repro.cluster.network import NetworkSpec
from repro.cluster.process_runtime import ProcessRuntime, resolve_runtime
from repro.cluster.runtime import CommStats, ThreadedRuntime, WorkerContext
from repro.cluster.dynamics import SpeedTrace, constant_trace, random_walk_trace, spike_trace
from repro.cluster.simulator import ClusterSim
from repro.cluster.wire import Frame, decode_frame, encode_frame
from repro.cluster.spec import ClusterSpec, paper_cluster
from repro.cluster.timeline import LatencyBreakdown, Phase

__all__ = [
    "Frame",
    "PAPER_EDGE_DEVICE_GFLOPS",
    "SpeedTrace",
    "constant_trace",
    "decode_frame",
    "encode_frame",
    "random_walk_trace",
    "spike_trace",
    "ClusterSim",
    "ClusterSpec",
    "CommStats",
    "DeviceSpec",
    "LatencyBreakdown",
    "NetworkSpec",
    "Phase",
    "ProcessRuntime",
    "ThreadedRuntime",
    "WorkerContext",
    "calibrate_matmul_gflops",
    "paper_cluster",
    "resolve_runtime",
]
