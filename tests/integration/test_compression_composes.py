"""The full Section VII-A story in one place: compression ∘ distribution.

The paper claims compressed models "can also leverage Voltage's distributed
inference system for further acceleration".  This integration test composes
int8 weight quantization with distributed execution and compressed
(float16) activation exchange, and verifies both halves of the claim: the
composition still predicts like the compressed local model, and every stage
contributes its own latency/memory saving.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.compress import quantize_model_
from repro.models import BertModel, tiny_config
from repro.systems import SingleDeviceSystem, VoltageSystem


@pytest.fixture
def cluster():
    return ClusterSpec.homogeneous(4, gflops=0.05, bandwidth_mbps=500)


def fresh_model(seed=42):
    return BertModel(
        tiny_config(num_layers=4, hidden_size=64, num_heads=8, ffn_dim=128),
        num_classes=3,
        rng=np.random.default_rng(seed),
    )


class TestFullComposition:
    def test_quantize_distribute_compress_wire(self, cluster):
        model = fresh_model()
        ids = model.encode_text("compose every optimisation at once " * 2)

        quant_report = quantize_model_(model)
        compressed_reference = model(ids)  # the compressed model, locally

        system = VoltageSystem(model, cluster, wire_dtype="float16")
        result = system.run(ids)

        assert quant_report.compression_ratio > 2.0
        # distributed compressed model ≈ local compressed model
        np.testing.assert_allclose(result.output, compressed_reference, atol=0.05)
        assert int(np.argmax(result.output)) == int(np.argmax(compressed_reference))

    def test_each_stage_contributes_latency_savings(self):
        # compute-bound operating point: slow devices, fatter input
        cluster = ClusterSpec.homogeneous(4, gflops=0.005, bandwidth_mbps=500)
        ids = fresh_model().encode_text("savings should stack stage by stage " * 8)

        dense_single = SingleDeviceSystem(
            fresh_model(), cluster.with_num_devices(1)
        ).run(ids).total_seconds

        dense_voltage = VoltageSystem(fresh_model(), cluster).run(ids).total_seconds

        dense_fp16 = VoltageSystem(fresh_model(), cluster, wire_dtype="float16").run(
            ids
        ).total_seconds

        assert dense_voltage < dense_single          # distribution helps
        assert dense_fp16 < dense_voltage            # wire compression on top

    def test_quantization_shrinks_the_replica_every_device_ships(self):
        """Section V-C's replication cost × Section VII-A's cure: the int8
        replica each device stores/downloads is ~4× smaller."""
        model = fresh_model()
        before = model.num_bytes()
        report = quantize_model_(model)
        # the model in memory stays float32 (simulated quantization), but
        # the checkpoint a device ships is the quantized payload:
        assert report.quantized_bytes < before / 2.5

    def test_threaded_execution_of_compressed_model(self, cluster):
        model = fresh_model()
        quantize_model_(model)
        ids = model.encode_text("threads and compression together")
        system = VoltageSystem(model, cluster)
        emulated = system.run(ids).output
        threaded, _ = system.execute_distributed(ids)
        np.testing.assert_allclose(threaded, emulated, atol=1e-5)
