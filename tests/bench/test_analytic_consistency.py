"""Each system's ``run()`` prices a request with its protocol's one
timeline, and that timeline needs no weights.

This is what licenses running the big-model figure sweeps (Figs. 4–5)
without instantiating 1.3 GB of BERT-Large weights: ``run()`` calls the
protocol's ``*_timeline`` exactly once on its own settings, and a direct
call with the same config, shapes, cluster and settings — no model in
sight — returns equal phases.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.layer import OrderPolicy
from repro.core.partition import PartitionScheme
from repro.core.schedule import LayerSchedule
from repro.models import BertModel, GPT2Model, tiny_config
from repro.systems import (
    PipelineParallelSystem,
    SingleDeviceSystem,
    TensorParallelSystem,
    VoltageSystem,
    pipeline_parallel,
    single_device,
    tensor_parallel,
    voltage,
)


@pytest.fixture
def bert():
    return BertModel(tiny_config(num_layers=3), num_classes=3, rng=np.random.default_rng(5))


@pytest.fixture
def gpt2():
    cfg = tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2)
    return GPT2Model(cfg, rng=np.random.default_rng(5))


CLUSTERS = [
    ClusterSpec.homogeneous(1, gflops=3.0, bandwidth_mbps=500),
    ClusterSpec.homogeneous(4, gflops=3.0, bandwidth_mbps=300),
    ClusterSpec.heterogeneous([1.0, 2.0, 4.0], bandwidth_mbps=700),
]


def assert_one_timeline(monkeypatch, module, name, system, raw, **settings):
    """``system.run(raw)`` calls ``module.name`` exactly once — on its model's
    config, the request's length, its own cluster, ``settings`` and the
    terminal FLOPs — and returns that call's breakdown; calling the timeline
    directly with the same arguments returns equal phases.  A Voltage
    ``scheme`` is compared by the per-layer partitions it resolves to."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(module, name, spy)
    model = system.model
    result = system.run(raw)
    ((run_args, run_kwargs, run_out),) = calls
    n = result.meta["n"]
    terminal = {"pre_flops": model.preprocess_flops(n), "post_flops": model.postprocess_flops(n)}
    assert result.latency is run_out[0]
    assert run_args == (model.config, n, system.cluster)
    expected = {**settings, **terminal}
    if "scheme" in expected:  # run() hands over its resolved schedule
        run_kwargs["scheme"], expected["scheme"] = (
            LayerSchedule.of(scheme, system.k).layer_parts(n, model.num_layers)
            for scheme in (run_kwargs["scheme"], expected["scheme"])
        )
    assert run_kwargs == expected
    modelled, _ = real(model.config, n, system.cluster, **settings, **terminal)
    assert result.latency.phases == modelled.phases
    return result, modelled


def assert_one_voltage_timeline(monkeypatch, system, raw, scheme=None):
    return assert_one_timeline(
        monkeypatch, voltage, "voltage_timeline", system, raw,
        scheme=scheme, policy=system.policy,
        wire_itemsize=system.wire_itemsize, overlap=system.overlap,
    )


class TestSingleDeviceConsistency:
    def test_breakdown_matches(self, bert, monkeypatch):
        ids = bert.encode_text("analytic consistency check input")
        assert_one_timeline(
            monkeypatch, single_device, "single_device_timeline",
            SingleDeviceSystem(bert, CLUSTERS[0]), ids,
        )


class TestVoltageConsistency:
    @pytest.mark.parametrize("cluster", CLUSTERS[1:], ids=["homog4", "hetero3"])
    def test_breakdown_matches(self, bert, cluster, monkeypatch):
        ids = bert.encode_text("one two three four five six seven eight nine ten " * 2)
        assert_one_voltage_timeline(monkeypatch, VoltageSystem(bert, cluster), ids)

    def test_causal_model_breakdown(self, gpt2, monkeypatch):
        assert_one_voltage_timeline(
            monkeypatch, VoltageSystem(gpt2, CLUSTERS[1]), np.arange(1, 20)
        )

    def test_every_setting_reaches_the_timeline(self, bert, monkeypatch):
        """Scheme, policy, wire itemsize and overlap are all plumbed through."""
        scheme = PartitionScheme([0.5, 0.3, 0.2])
        system = VoltageSystem(
            bert, CLUSTERS[2], scheme=scheme, policy=OrderPolicy("reordered"),
            wire_dtype="int8", overlap=True,
        )
        ids = bert.encode_text("one two three four five six seven eight nine ten " * 2)
        _, modelled = assert_one_voltage_timeline(monkeypatch, system, ids, scheme=scheme)
        assert any(p.name == "all-gather (overlapped)" for p in modelled.phases)

    def test_layer_schedule_breakdown(self, bert, monkeypatch):
        """A schedule whose layers really differ is just per-layer partitions."""
        uneven = [PartitionScheme([0.2, 0.3, 0.5]), PartitionScheme([0.6, 0.4, 0.0])]
        schedule = LayerSchedule([PartitionScheme.even(3), *uneven])
        ids = bert.encode_text("one two three four five six seven eight nine ten " * 2)
        result, _ = assert_one_voltage_timeline(
            monkeypatch, VoltageSystem(bert, CLUSTERS[2], scheme=schedule), ids, scheme=schedule
        )
        assert not result.meta["scheme_uniform"]


class TestTensorParallelConsistency:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_breakdown_matches(self, bert, k, monkeypatch):
        cluster = ClusterSpec.homogeneous(k, gflops=3.0, bandwidth_mbps=400)
        ids = bert.encode_text("shards must cost exactly what the model says")
        assert_one_timeline(
            monkeypatch, tensor_parallel, "tensor_parallel_timeline",
            TensorParallelSystem(bert, cluster), ids,
        )


class TestPipelineConsistency:
    @pytest.mark.parametrize("k", [2, 3])
    def test_breakdown_matches(self, bert, k, monkeypatch):
        cluster = ClusterSpec.homogeneous(k, gflops=3.0, bandwidth_mbps=400)
        ids = bert.encode_text("pipeline stages in sequence")
        assert_one_timeline(
            monkeypatch, pipeline_parallel, "pipeline_timeline",
            PipelineParallelSystem(bert, cluster), ids,
        )
