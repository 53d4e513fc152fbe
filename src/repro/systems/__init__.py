"""End-to-end inference systems sharing one interface.

- :class:`SingleDeviceSystem` — the paper's baseline deployment;
- :class:`VoltageSystem` — Algorithm 2 (position partition + All-Gather);
  with ``policy=OrderPolicy("naive")`` it is the naive partition baseline
  (position partition, fixed Eq. (3) order);
- :class:`TensorParallelSystem` — Megatron-style sharding, 2 All-Reduces.
"""

from repro.systems.adaptive import AdaptiveVoltageSystem
from repro.systems.base import InferenceResult, InferenceSystem, activation_bytes
from repro.systems.decode import generate_distributed, run_decode
from repro.systems.fault_tolerant import (
    AllDevicesFailedError,
    FailureSchedule,
    FaultTolerantVoltageSystem,
)
from repro.systems.single_device import SingleDeviceSystem
from repro.systems.tensor_parallel import TensorParallelSystem
from repro.systems.voltage import VoltageSystem

__all__ = [
    "AdaptiveVoltageSystem",
    "AllDevicesFailedError",
    "FailureSchedule",
    "FaultTolerantVoltageSystem",
    "InferenceResult",
    "InferenceSystem",
    "SingleDeviceSystem",
    "TensorParallelSystem",
    "VoltageSystem",
    "activation_bytes",
    "generate_distributed",
    "run_decode",
]
