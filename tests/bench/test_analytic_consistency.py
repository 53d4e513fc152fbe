"""The analytic latency models *are* the systems' timelines.

This is what licenses running the big-model figure sweeps (Figs. 4–5)
without instantiating 1.3 GB of BERT-Large weights: ``run()`` and the
``bench.analytic`` adapter do not mirror each other — both hand back what the
protocol's one timeline function returned, given the same shapes.
"""

import numpy as np
import pytest

from repro.bench import analytic
from repro.cluster.simulator import ClusterSim
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


def assert_one_timeline(monkeypatch, module, name, system, raw, adapter, **settings):
    """``system.run(raw)`` and ``adapter(config, n, cluster, **settings)`` each
    call ``module.name`` exactly once, with the same arguments (only the
    ``ClusterSim`` instance wrapping the cluster differs), and each returns
    that call's breakdown."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]

    def shapes(args):
        return tuple(a.cluster if isinstance(a, ClusterSim) else a for a in args)

    def breakdown(out):
        return out[0] if isinstance(out, tuple) else out

    monkeypatch.setattr(module, name, spy)
    model = system.model
    result = system.run(raw)
    n = result.meta["n"]
    modelled = adapter(
        model.config, n, system.cluster,
        pre_flops=model.preprocess_flops(n), post_flops=model.postprocess_flops(n),
        **settings,
    )
    (run_args, run_kwargs, run_out), (model_args, model_kwargs, model_out) = calls
    assert result.latency is breakdown(run_out) and modelled is breakdown(model_out)
    assert shapes(run_args) == shapes(model_args)
    assert any(a is system.cluster for a in shapes(model_args))
    assert run_kwargs == model_kwargs
    assert result.latency.phases == modelled.phases
    return result, modelled


def assert_one_voltage_timeline(monkeypatch, system, raw, scheme=None):
    return assert_one_timeline(
        monkeypatch, voltage, "voltage_timeline", system, raw, analytic.voltage_latency,
        scheme=scheme, policy=system.policy,
        wire_itemsize=system.wire_itemsize, overlap=system.overlap,
    )


class TestSingleDeviceConsistency:
    def test_breakdown_matches(self, bert, monkeypatch):
        ids = bert.encode_text("analytic consistency check input")
        assert_one_timeline(
            monkeypatch, single_device, "single_device_timeline",
            SingleDeviceSystem(bert, CLUSTERS[0]), ids, analytic.single_device_latency,
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
            TensorParallelSystem(bert, cluster), ids, analytic.tensor_parallel_latency,
        )


class TestPipelineConsistency:
    @pytest.mark.parametrize("k", [2, 3])
    def test_breakdown_matches(self, bert, k, monkeypatch):
        cluster = ClusterSpec.homogeneous(k, gflops=3.0, bandwidth_mbps=400)
        ids = bert.encode_text("pipeline stages in sequence")
        assert_one_timeline(
            monkeypatch, pipeline_parallel, "pipeline_timeline",
            PipelineParallelSystem(bert, cluster), ids, analytic.pipeline_latency,
        )
