"""Cross-system conformance: every distributed system agrees with the baseline.

One matrix, instead of per-system spot checks: each system's ``run()`` must
land within the wire-dtype tolerance of :class:`SingleDeviceSystem`, and each
system that implements ``execute_distributed`` must be *bit-identical* to its
own simulated ``run()`` — the same contracts :mod:`repro.verify` fuzzes, so a
failure here localizes which system broke the contract.
"""

import numpy as np
import pytest

from repro.cluster.dynamics import spike_trace
from repro.core.layer import OrderPolicy
from repro.systems import (
    AdaptiveVoltageSystem,
    FaultTolerantVoltageSystem,
    SingleDeviceSystem,
    TensorParallelSystem,
    VoltageSystem,
)
from repro.systems.voltage import WIRE_DTYPES
from repro.verify.tolerances import output_tolerance

FACTORIES = {
    "voltage": lambda m, c: VoltageSystem(m, c),
    "voltage-auto": lambda m, c: VoltageSystem(m, c, scheme="auto"),
    "adaptive": lambda m, c: AdaptiveVoltageSystem(m, c),
    "naive-partition": lambda m, c: VoltageSystem(m, c, policy=OrderPolicy("naive")),
    "tensor-parallel": lambda m, c: TensorParallelSystem(m, c),
    "fault-tolerant": lambda m, c: FaultTolerantVoltageSystem(m, c),
}

THREADED = {
    "voltage": lambda m, c, wd: VoltageSystem(m, c, wire_dtype=wd),
    "tensor-parallel": lambda m, c, wd: TensorParallelSystem(m, c),
    # float32 wire only; a one-device cluster has no device 1 to lose
    "adaptive": lambda m, c, wd: AdaptiveVoltageSystem(
        m, c, trace=spike_trace(c.num_devices, num_steps=10, victim=0), mode="dynamic"
    ),
    "fault-tolerant": lambda m, c, wd: FaultTolerantVoltageSystem(
        m, c, failures={1: 1} if c.num_devices > 1 else None
    ),
}


@pytest.fixture(params=["bert", "gpt2"])
def model(request):
    return request.getfixturevalue(request.param)


@pytest.fixture
def ids(model):
    rng = np.random.default_rng(17)
    return rng.integers(0, model.config.vocab_size, size=18)


class TestRunMatchesSingleDevice:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_distributed_run_matches_baseline(self, name, model, cluster4, ids):
        reference = SingleDeviceSystem(model, cluster4).run(ids).output
        output = FACTORIES[name](model, cluster4).run(ids).output
        tol = output_tolerance("float32", reference)
        np.testing.assert_allclose(output, reference, rtol=tol.rtol, atol=tol.atol)

    def test_single_device_is_the_model_itself(self, model, cluster4, ids):
        result = SingleDeviceSystem(model, cluster4).run(ids)
        np.testing.assert_array_equal(result.output, model.forward(ids))


class TestWireDtypeSweep:
    @pytest.mark.parametrize("wire_dtype", sorted(WIRE_DTYPES))
    def test_voltage_within_dtype_tolerance(self, model, cluster4, ids, wire_dtype):
        reference = SingleDeviceSystem(model, cluster4).run(ids).output
        output = VoltageSystem(model, cluster4, wire_dtype=wire_dtype).run(ids).output
        tol = output_tolerance(wire_dtype, reference)
        np.testing.assert_allclose(output, reference, rtol=tol.rtol, atol=tol.atol)

    @pytest.mark.parametrize("wire_dtype", ["float16", "int8"])
    def test_lossy_dtypes_are_actually_lossy(self, model, cluster4, ids, wire_dtype):
        output = VoltageSystem(model, cluster4, wire_dtype=wire_dtype).run(ids).output
        assert not np.array_equal(output, model.forward(ids))


# only Voltage reads the wire dtype; the other factories ignore it
THREADED_CASES = [
    pytest.param(name, wire_dtype, id=f"{wire_dtype}-{name}")
    for name in sorted(THREADED)
    for wire_dtype in (sorted(WIRE_DTYPES) if name == "voltage" else ["float32"])
]


class TestThreadedMatchesRun:
    @pytest.mark.parametrize("name, wire_dtype", THREADED_CASES)
    def test_threaded_bit_identical_to_simulated(
        self, name, model, cluster4, ids, wire_dtype
    ):
        system = THREADED[name](model, cluster4, wire_dtype)
        simulated = system.run(ids).output
        threaded, _ = system.execute_distributed(ids)
        np.testing.assert_array_equal(threaded, simulated)

    @pytest.mark.parametrize("name", sorted(THREADED))
    def test_threaded_on_single_device_cluster(self, name, model, cluster1, ids):
        system = THREADED[name](model, cluster1, "float32")
        threaded, _ = system.execute_distributed(ids)
        np.testing.assert_array_equal(threaded, system.run(ids).output)
