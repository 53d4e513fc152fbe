"""Overlap conformance: streamed compute/communication must change nothing.

The overlapped threaded paths (Voltage's ring all-gather with next-layer
streaming, tensor parallelism's streamed all-reduce epilogues) restrict
themselves to bitwise row-safe work, so every output here is compared with
``np.testing.assert_array_equal`` — exact equality, not a tolerance.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.partition import PartitionScheme
from repro.core.schedule import LayerSchedule
from repro.systems import TensorParallelSystem, VoltageSystem
from repro.systems.voltage import WIRE_DTYPES, voltage_timeline


@pytest.fixture(params=["bert", "gpt2"])
def model(request):
    return request.getfixturevalue(request.param)


@pytest.fixture
def ids(model):
    rng = np.random.default_rng(23)
    return rng.integers(0, model.config.vocab_size, size=19)


class TestVoltageOverlapBitIdentity:
    @pytest.mark.parametrize("wire_dtype", WIRE_DTYPES)
    def test_overlapped_threaded_matches_run(self, model, cluster4, ids, wire_dtype):
        system = VoltageSystem(model, cluster4, wire_dtype=wire_dtype, overlap=True)
        simulated = system.run(ids).output
        threaded, _ = system.execute_distributed(ids)
        np.testing.assert_array_equal(threaded, simulated)

    @pytest.mark.parametrize("wire_dtype", WIRE_DTYPES)
    def test_overlapped_matches_blocking_threaded(self, model, cluster4, ids, wire_dtype):
        system = VoltageSystem(model, cluster4, wire_dtype=wire_dtype)
        blocking, _ = system.execute_distributed(ids, overlap=False)
        overlapped, _ = system.execute_distributed(ids, overlap=True)
        np.testing.assert_array_equal(overlapped, blocking)

    def test_uneven_scheme(self, bert, cluster4, token_ids):
        scheme = PartitionScheme([0.55, 0.25, 0.15, 0.05])
        system = VoltageSystem(bert, cluster4, scheme=scheme, overlap=True)
        threaded, _ = system.execute_distributed(token_ids)
        np.testing.assert_array_equal(threaded, system.run(token_ids).output)

    def test_layer_schedule(self, bert, cluster4, token_ids):
        schedule = LayerSchedule(
            [
                PartitionScheme([0.4, 0.3, 0.2, 0.1]),
                PartitionScheme([0.25, 0.25, 0.25, 0.25]),
                PartitionScheme([0.1, 0.2, 0.3, 0.4]),
            ]
        )
        system = VoltageSystem(bert, cluster4, scheme=schedule, overlap=True)
        threaded, _ = system.execute_distributed(token_ids)
        np.testing.assert_array_equal(threaded, system.run(token_ids).output)

    def test_single_device_degenerates_to_blocking(self, bert, cluster1, token_ids):
        system = VoltageSystem(bert, cluster1, overlap=True)
        threaded, _ = system.execute_distributed(token_ids)
        np.testing.assert_array_equal(threaded, system.run(token_ids).output)

    def test_more_devices_than_positions(self, bert):
        """K > N leaves some partitions empty; streaming must cope."""
        cluster = ClusterSpec.homogeneous(8, gflops=5.0, bandwidth_mbps=500)
        ids = np.arange(5, dtype=np.int64) % bert.config.vocab_size
        system = VoltageSystem(bert, cluster, overlap=True)
        threaded, _ = system.execute_distributed(ids)
        np.testing.assert_array_equal(threaded, system.run(ids).output)


class TestTensorParallelOverlap:
    @pytest.mark.parametrize("world_size", [2, 3, 4])
    def test_overlapped_matches_run(self, model, ids, world_size):
        cluster = ClusterSpec.homogeneous(world_size, gflops=5.0, bandwidth_mbps=500)
        system = TensorParallelSystem(model, cluster)
        overlapped, _ = system.execute_distributed(ids, overlap=True)
        np.testing.assert_array_equal(overlapped, system.run(ids).output)

    def test_overlapped_matches_blocking_threaded(self, model, cluster4, ids):
        system = TensorParallelSystem(model, cluster4)
        blocking, _ = system.execute_distributed(ids, overlap=False)
        overlapped, _ = system.execute_distributed(ids, overlap=True)
        np.testing.assert_array_equal(overlapped, blocking)


class TestOverlapCostModel:
    def test_run_meta_reports_overlap_fields(self, bert, cluster4, token_ids):
        result = VoltageSystem(bert, cluster4, overlap=True).run(token_ids)
        assert result.meta["overlap"] is True
        exposed = result.meta["exposed_comm_per_layer"]
        assert len(exposed) == bert.num_layers - 1  # inner gathers only
        assert all(e >= 0.0 for e in exposed)
        assert result.meta["hidden_comm_s"] > 0.0
        assert result.latency.hidden_comm_seconds == pytest.approx(
            result.meta["hidden_comm_s"]
        )

    def test_modeled_overlap_never_worse_per_layer(self, bert, cluster4, token_ids):
        blocking = VoltageSystem(bert, cluster4).run(token_ids)
        overlapped = VoltageSystem(bert, cluster4, overlap=True).run(token_ids)
        full = blocking.meta["exposed_comm_per_layer"]
        exposed = overlapped.meta["exposed_comm_per_layer"]
        assert len(full) == len(exposed)
        for e, f in zip(exposed, full):
            assert e <= f + 1e-15
        assert overlapped.total_seconds <= blocking.total_seconds + 1e-12
        # conservation: exposed + hidden == blocking comm, layer-summed
        assert sum(exposed) + overlapped.meta["hidden_comm_s"] == pytest.approx(sum(full))

    def test_analytic_mirror_agrees_with_system(self, bert, cluster4, token_ids):
        n = len(token_ids)
        system_result = VoltageSystem(bert, cluster4, overlap=True).run(token_ids)
        modeled, _ = voltage_timeline(bert.config, n, cluster4, overlap=True)
        system_phases = [
            (p.seconds, p.hidden_s)
            for p in system_result.latency.phases
            if p.name == "all-gather (overlapped)"
        ]
        timeline_phases = [
            (p.seconds, p.hidden_s)
            for p in modeled.phases
            if p.name == "all-gather (overlapped)"
        ]
        assert len(system_phases) == len(timeline_phases) == bert.num_layers - 1
        for (s_sec, s_hid), (a_sec, a_hid) in zip(system_phases, timeline_phases):
            assert s_sec == pytest.approx(a_sec)
            assert s_hid == pytest.approx(a_hid)
