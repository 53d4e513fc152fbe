"""One rank body per protocol.

Every surface that executes a protocol's layers — the host emulation in
``run()`` and the runtime ranks of ``execute_distributed``, blocking or
overlapped — enters the same body: :func:`repro.systems.base.voltage_layers`
for the Voltage family, :func:`repro.systems.tensor_parallel.
tensor_parallel_layers` for tensor parallelism.  They differ only in the
ranks they own and the exchange they pass.  The spies wrap the real bodies,
so every output below is still checked.
"""

import inspect

import numpy as np
import pytest

from repro.cluster.dynamics import spike_trace
from repro.systems import base, tensor_parallel, voltage
from repro.systems.adaptive import AdaptiveVoltageSystem
from repro.systems.fault_tolerant import FaultTolerantVoltageSystem
from repro.systems.tensor_parallel import TensorParallelSystem
from repro.systems.voltage import VoltageSystem


def spy_on(monkeypatch, name, modules):
    """Replace ``name`` — one function, imported by every module of
    ``modules`` — with a spy that records each call's bound arguments."""
    real = getattr(modules[0], name)
    assert all(getattr(module, name) is real for module in modules), "a second copy"
    signature = inspect.signature(real)
    calls = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, spy)
    return calls


def owned(calls) -> list[list[int] | None]:
    """The ranks each call owned (None: all of them), sorted — runtime
    ranks call from their own threads in any order."""
    ranks = [None if c["ranks"] is None else list(c["ranks"]) for c in calls]
    return sorted(ranks, key=lambda r: (r is None, r))


@pytest.fixture
def voltage_calls(monkeypatch):
    return spy_on(monkeypatch, "voltage_layers", [base, voltage])


class TestVoltageFamily:
    def test_run_owns_every_rank_and_encodes_in_the_body(
        self, bert, cluster4, token_ids, voltage_calls
    ):
        system = VoltageSystem(bert, cluster4, wire_dtype="int8")
        result = system.run(token_ids)
        (call,) = voltage_calls
        assert call["ranks"] is None and call["exchange"] is base.host_all_gather
        assert call["encode"] == system._encode_for_wire
        threaded, _ = system.execute_distributed(token_ids)
        np.testing.assert_array_equal(threaded, result.output)

    @pytest.mark.parametrize("overlap", [False, True])
    def test_each_runtime_rank_owns_itself(
        self, bert, cluster4, token_ids, voltage_calls, overlap
    ):
        system = VoltageSystem(bert, cluster4, wire_dtype="float16")
        threaded, _ = system.execute_distributed(token_ids, runtime="threaded", overlap=overlap)
        assert owned(voltage_calls) == [[0], [1], [2], [3]]
        assert all(call["encode"] == system._encode_for_wire for call in voltage_calls)
        assert all(call["exchange"] is not base.host_all_gather for call in voltage_calls)
        np.testing.assert_array_equal(threaded, system.run(token_ids).output)

    def test_fault_tolerant_and_adaptive_run_through_it(
        self, bert, cluster4, token_ids, voltage_calls
    ):
        faulty = FaultTolerantVoltageSystem(bert, cluster4, failures={1: 1})
        drifting = AdaptiveVoltageSystem(
            bert, cluster4, trace=spike_trace(4, num_steps=10, victim=0, spike_start=0)
        )
        for system in (faulty, drifting):
            voltage_calls.clear()
            result = system.run(token_ids)
            assert owned(voltage_calls) == [None]
            np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)
            voltage_calls.clear()
            threaded, _ = system.execute_distributed(token_ids)
            assert owned(voltage_calls) == [[0], [1], [2], [3]]
            np.testing.assert_array_equal(threaded, result.output)


class TestTensorParallel:
    @pytest.fixture
    def calls(self, monkeypatch):
        return spy_on(monkeypatch, "tensor_parallel_layers", [tensor_parallel])

    def test_run_owns_every_rank(self, bert, cluster4, token_ids, calls):
        TensorParallelSystem(bert, cluster4).run(token_ids)
        (call,) = calls
        assert list(call["ranks"]) == [0, 1, 2, 3]
        assert call["all_reduce"] is tensor_parallel.host_all_reduce

    @pytest.mark.parametrize("overlap, exchange", [(False, "blocking"), (True, "streamed")])
    def test_each_runtime_rank_owns_its_shards(
        self, bert, cluster4, token_ids, calls, overlap, exchange
    ):
        system = TensorParallelSystem(bert, cluster4)
        threaded, _ = system.execute_distributed(token_ids, overlap=overlap)
        assert owned(calls) == [[0], [1], [2], [3]]
        assert {call["all_reduce"].__name__ for call in calls} == {exchange}
        np.testing.assert_array_equal(threaded, system.run(token_ids).output)
