"""Tests for the naive-partition and pipeline-parallel baselines.

The naive partition is Voltage with the computation order pinned to Eq. (3)
(``OrderPolicy("naive")``) — the "Naive" baseline of Fig. 6."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.complexity import theorem3_min_partitions
from repro.core.layer import OrderPolicy
from repro.systems import PipelineParallelSystem, VoltageSystem


def naive_partition(model, cluster):
    return VoltageSystem(model, cluster, policy=OrderPolicy("naive"))


class TestNaivePartition:
    def test_output_still_correct(self, bert, cluster4, token_ids):
        result = naive_partition(bert, cluster4).run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)

    def test_always_uses_eq3(self, bert, cluster4, token_ids):
        result = naive_partition(bert, cluster4).run(token_ids)
        assert set(result.meta["orders"]) == {"eq3"}

    def test_slower_than_voltage_beyond_switch_point(self, bert, token_ids):
        """Once K exceeds Theorem 3's K*, the adaptive order must win."""
        cfg = bert.config
        n = len(token_ids)
        k_star = theorem3_min_partitions(n, cfg.hidden_size, cfg.head_dim)
        k = int(k_star) + 2
        cluster = ClusterSpec.homogeneous(k, gflops=5.0)
        naive = naive_partition(bert, cluster).run(token_ids)
        voltage = VoltageSystem(bert, cluster).run(token_ids)
        assert voltage.latency.compute_seconds < naive.latency.compute_seconds

    def test_identical_below_switch_point(self, bert, token_ids):
        """Small K: Theorem 2 picks Eq. (3), so Voltage == naive exactly."""
        cluster = ClusterSpec.homogeneous(2, gflops=5.0)
        naive = naive_partition(bert, cluster).run(token_ids)
        voltage = VoltageSystem(bert, cluster).run(token_ids)
        if set(voltage.meta["orders"]) == {"eq3"}:
            assert voltage.total_seconds == pytest.approx(naive.total_seconds)


class TestPipelineParallel:
    def test_output_correct(self, bert, cluster4, token_ids):
        result = PipelineParallelSystem(bert, cluster4).run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)

    def test_stage_layer_counts(self, bert, cluster4, token_ids):
        result = PipelineParallelSystem(bert, cluster4).run(token_ids)
        assert sum(result.meta["stage_layers"]) == bert.num_layers

    def test_single_request_compute_not_reduced(self, bert, token_ids):
        """Batch-1 latency: pipeline compute equals single-device compute
        (every layer still runs sequentially) — Section V-C's argument."""
        from repro.systems import SingleDeviceSystem

        single = SingleDeviceSystem(bert, ClusterSpec.homogeneous(1, gflops=5.0)).run(token_ids)
        pipeline = PipelineParallelSystem(
            bert, ClusterSpec.homogeneous(3, gflops=5.0)
        ).run(token_ids)
        assert pipeline.latency.compute_seconds == pytest.approx(
            single.latency.compute_seconds, rel=0.05
        )
        # ...and it pays MORE communication (inter-stage hops)
        assert pipeline.latency.comm_seconds > single.latency.comm_seconds

    def test_stream_throughput_beats_inverse_latency(self, bert, cluster4):
        """Saturated stream: throughput ≫ 1/latency — the pipelining upside."""
        system = PipelineParallelSystem(bert, cluster4)
        report = system.serve_stream(n=16, num_requests=12, arrival_interval=0.0)
        single_request = report.request_latencies[0]
        assert report.throughput_rps > 1.5 / single_request

    def test_stream_latency_never_below_single_request(self, bert, cluster4):
        system = PipelineParallelSystem(bert, cluster4)
        report = system.serve_stream(n=16, num_requests=6)
        first = report.request_latencies[0]
        assert all(lat >= first * 0.999 for lat in report.request_latencies)

    def test_sparse_arrivals_keep_latency_flat(self, bert, cluster4):
        """With large inter-arrival gaps every request sees an empty pipeline."""
        system = PipelineParallelSystem(bert, cluster4)
        report = system.serve_stream(n=16, num_requests=5, arrival_interval=10.0)
        first = report.request_latencies[0]
        for lat in report.request_latencies:
            assert lat == pytest.approx(first)

    def test_stream_validation(self, bert, cluster4):
        with pytest.raises(ValueError):
            PipelineParallelSystem(bert, cluster4).serve_stream(n=16, num_requests=0)

    def test_mean_latency_property(self, bert, cluster4):
        report = PipelineParallelSystem(bert, cluster4).serve_stream(n=16, num_requests=4)
        assert report.mean_latency == pytest.approx(
            sum(report.request_latencies) / 4
        )
