"""End-to-end integration: all systems serve the same requests identically.

This is the repo's strongest guarantee: for real text/image inputs, every
deployment strategy — single device, Voltage (emulated and threaded), naive
partition, tensor parallel (emulated and threaded), pipeline — produces the
same predictions as the plain model.
"""

import numpy as np
import pytest

from repro.bench.workloads import random_image, random_text
from repro.cluster.spec import ClusterSpec
from repro.core.layer import OrderPolicy
from repro.models import BertModel, GPT2Model, ViTModel, tiny_config, vit_base_config
from repro.systems import (
    PipelineParallelSystem,
    SingleDeviceSystem,
    TensorParallelSystem,
    VoltageSystem,
)


@pytest.fixture(scope="module")
def cluster():
    return ClusterSpec.homogeneous(4, gflops=5.0, bandwidth_mbps=500)


@pytest.fixture(scope="module")
def bert():
    return BertModel(
        tiny_config(num_layers=4, hidden_size=48, num_heads=6, ffn_dim=96),
        num_classes=4,
        rng=np.random.default_rng(21),
    )


@pytest.fixture(scope="module")
def gpt2():
    cfg = tiny_config(
        norm_style="pre", is_causal=True, type_vocab_size=0,
        num_layers=3, hidden_size=48, num_heads=6, ffn_dim=96, vocab_size=120,
    )
    return GPT2Model(cfg, rng=np.random.default_rng(22))


@pytest.fixture(scope="module")
def vit():
    cfg = vit_base_config().scaled(
        hidden_size=48, num_heads=6, num_layers=3, ffn_dim=96, max_positions=17,
        extras={"image_size": 32, "patch_size": 8, "num_channels": 3},
    )
    return ViTModel(cfg, num_classes=7, rng=np.random.default_rng(23))


ALL_SYSTEMS = {
    "single-device": SingleDeviceSystem,
    "voltage": VoltageSystem,
    "naive-partition": lambda m, c: VoltageSystem(m, c, policy=OrderPolicy("naive")),
    "tensor-parallel": TensorParallelSystem,
    "pipeline-parallel": PipelineParallelSystem,
}


class TestTextClassificationAgreement:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_same_logits_as_plain_model(self, bert, cluster, system):
        text = random_text(40, seed=7)
        ids = bert.encode_text(text)
        reference = bert(ids)
        result = ALL_SYSTEMS[system](bert, cluster).run(ids)
        np.testing.assert_allclose(result.output, reference, atol=1e-3)

    def test_same_argmax_across_many_inputs(self, bert, cluster):
        voltage = VoltageSystem(bert, cluster)
        for seed in range(8):
            ids = bert.encode_text(random_text(15 + seed * 5, seed=seed))
            assert int(np.argmax(voltage.run(ids).output)) == int(np.argmax(bert(ids)))


class TestImageClassificationAgreement:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_vit_logits_agree(self, vit, cluster, system):
        image = random_image(size=32, seed=3)
        reference = vit(image)
        result = ALL_SYSTEMS[system](vit, cluster).run(image)
        np.testing.assert_allclose(result.output, reference, atol=1e-3)


class TestCausalLmAgreement:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_next_token_logits_agree(self, gpt2, cluster, system):
        ids = np.arange(1, 25) % 100
        reference = gpt2(ids)
        result = ALL_SYSTEMS[system](gpt2, cluster).run(ids)
        np.testing.assert_allclose(result.output, reference, atol=1e-3)

    def test_distributed_greedy_generation(self, gpt2, cluster):
        """Serve generation by re-running Algorithm 2 per emitted token."""
        system = VoltageSystem(gpt2, cluster)
        prompt = np.array([5, 9, 13], dtype=np.int64)
        ids = list(prompt)
        for _ in range(4):
            logits = system.run(np.asarray(ids)).output
            ids.append(int(np.argmax(logits)))
        np.testing.assert_array_equal(
            np.asarray(ids), gpt2.generate(prompt, max_new_tokens=4)
        )


class TestThreadedAgreesWithEmulated:
    def test_voltage_all_models(self, bert, gpt2, vit, cluster):
        for model, raw in (
            (bert, bert.encode_text(random_text(30))),
            (gpt2, np.arange(1, 20) % 100),
            (vit, random_image(size=32)),
        ):
            system = VoltageSystem(model, cluster)
            emulated = system.run(raw).output
            threaded, _ = system.execute_distributed(raw, runtime="threaded")
            np.testing.assert_allclose(threaded, emulated, atol=1e-5)

    def test_tensor_parallel_all_models(self, bert, gpt2, vit, cluster):
        for model, raw in (
            (bert, bert.encode_text(random_text(30))),
            (gpt2, np.arange(1, 20) % 100),
            (vit, random_image(size=32)),
        ):
            system = TensorParallelSystem(model, cluster)
            emulated = system.run(raw).output
            threaded, _ = system.execute_distributed(raw, runtime="threaded")
            np.testing.assert_allclose(threaded, emulated, atol=1e-5)


class TestCommReconciliation:
    """The threaded runtime's byte counters, the systems' meta accounting,
    and the planner's closed forms must all tell the same story."""

    def test_three_way_agreement(self, bert, cluster):
        from repro.core.planner import tensor_parallel_layer_bytes, voltage_layer_bytes

        ids = bert.encode_text(random_text(30))
        n, f, k = len(ids), bert.config.hidden_size, cluster.num_devices

        voltage = VoltageSystem(bert, cluster)
        _, v_stats = voltage.execute_distributed(ids)
        v_formula = voltage_layer_bytes(n, f, k) * bert.num_layers

        tensor = TensorParallelSystem(bert, cluster)
        _, t_stats = tensor.execute_distributed(ids)
        t_formula = tensor_parallel_layer_bytes(n, f, k) * bert.num_layers

        assert v_stats[0].bytes_received == pytest.approx(v_formula, rel=0.15)
        # exact per-rank ring integers vs the uniform 2(K-1)/K closed form:
        # uneven row splits drift by up to ~(K-1)/N
        assert t_stats[0].bytes_received == pytest.approx(t_formula, rel=0.05)
        measured_ratio = t_stats[0].bytes_received / v_stats[0].bytes_received
        assert measured_ratio == pytest.approx(4.0, rel=0.15)


class TestHeterogeneousDeployment:
    def test_auto_scheme_end_to_end(self, bert):
        cluster = ClusterSpec.heterogeneous([1.0, 3.0, 9.0], bandwidth_mbps=500)
        system = VoltageSystem(bert, cluster, scheme="auto")
        ids = bert.encode_text(random_text(40))
        result = system.run(ids)
        np.testing.assert_allclose(result.output, bert(ids), atol=1e-3)
        even = VoltageSystem(bert, cluster).run(ids)
        assert result.latency.compute_seconds <= even.latency.compute_seconds * (1 + 1e-9)
