"""Tests for the naive-partition baseline.

The naive partition is Voltage with the computation order pinned to Eq. (3)
(``OrderPolicy("naive")``) — the "Naive" baseline of Fig. 6."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.complexity import theorem3_min_partitions
from repro.core.layer import OrderPolicy
from repro.systems import VoltageSystem


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

