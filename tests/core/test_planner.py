"""Tests for communication accounting and partition-scheme optimisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layer import OrderPolicy
from repro.core.partition import PartitionScheme
from repro.core.planner import (
    BYTES_PER_ELEMENT,
    comm_report,
    estimate_makespan,
    makespan_optimal_scheme,
    tensor_parallel_layer_bytes,
    voltage_layer_bytes,
)
from repro.models.config import tiny_config


class TestCommAccounting:
    def test_voltage_bytes_formula(self):
        assert voltage_layer_bytes(200, 1024, 4) == 3 * 200 * 1024 / 4 * BYTES_PER_ELEMENT

    def test_tp_is_four_times_voltage(self):
        for k in range(2, 10):
            assert tensor_parallel_layer_bytes(100, 64, k) == pytest.approx(
                4 * voltage_layer_bytes(100, 64, k)
            )

    def test_report_totals_scale_with_layers(self):
        config = tiny_config(num_layers=5)
        report = comm_report(config, 40, 4)
        assert report.voltage_total_bytes == 5 * report.voltage_bytes_per_layer
        assert report.reduction_factor == pytest.approx(4.0)

    def test_report_single_device(self):
        report = comm_report(tiny_config(), 40, 1)
        assert report.voltage_bytes_per_layer == 0
        assert report.tensor_parallel_bytes_per_layer == 0
        assert report.reduction_factor == 1.0


class TestDeviceLayerFlops:
    def test_zero_partition_zero_flops(self):
        assert OrderPolicy().layer_flops(tiny_config(), 20, 0) == 0

    def test_monotone_in_partition_length(self):
        config = tiny_config()
        values = [OrderPolicy().layer_flops(config, 40, p) for p in range(0, 41, 5)]
        assert values == sorted(values)

    def test_policy_changes_cost(self):
        config = tiny_config(hidden_size=64, num_heads=8)
        naive = OrderPolicy("naive").layer_flops(config, 64, 2)
        adaptive = OrderPolicy().layer_flops(config, 64, 2)
        assert adaptive < naive  # tiny partition: Theorem 2 picks Eq. (8)


class TestMakespanScheme:
    CONFIG = tiny_config(hidden_size=64, num_heads=8, ffn_dim=128)

    def test_homogeneous_devices_get_even_split(self):
        scheme = makespan_optimal_scheme(self.CONFIG, 120, [5.0, 5.0, 5.0, 5.0])
        lengths = [p.length for p in scheme.positions(120)]
        assert lengths == [30, 30, 30, 30]

    def test_single_device(self):
        assert makespan_optimal_scheme(self.CONFIG, 50, [5.0]) == PartitionScheme.single()

    def test_faster_devices_get_more_positions(self):
        scheme = makespan_optimal_scheme(self.CONFIG, 120, [2.0, 4.0, 8.0])
        lengths = [p.length for p in scheme.positions(120)]
        assert lengths[0] < lengths[1] < lengths[2]
        assert sum(lengths) == 120

    def test_beats_or_matches_even_split(self):
        speeds = [1.0, 2.0, 6.0]
        optimal = makespan_optimal_scheme(self.CONFIG, 150, speeds)
        even = PartitionScheme.even(3)
        assert estimate_makespan(self.CONFIG, 150, optimal, speeds) <= estimate_makespan(
            self.CONFIG, 150, even, speeds
        )

    def test_beats_or_matches_proportional_split(self):
        """The naive speed-proportional split ignores the attention constant
        term; the bisection planner must never be worse."""
        speeds = [1.0, 1.0, 10.0]
        optimal = makespan_optimal_scheme(self.CONFIG, 90, speeds)
        proportional = PartitionScheme.proportional(speeds)
        assert estimate_makespan(self.CONFIG, 90, optimal, speeds) <= estimate_makespan(
            self.CONFIG, 90, proportional, speeds
        ) * (1 + 1e-9)

    @given(
        k=st.integers(2, 6),
        n=st.integers(10, 200),
        seed=st.integers(0, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_valid_and_no_worse_than_even(self, k, n, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        speeds = list(rng.uniform(1.0, 10.0, size=k))
        scheme = makespan_optimal_scheme(self.CONFIG, n, speeds)
        parts = scheme.positions(n)
        assert sum(p.length for p in parts) == n
        optimal_time = estimate_makespan(self.CONFIG, n, scheme, speeds)
        even_time = estimate_makespan(self.CONFIG, n, PartitionScheme.even(k), speeds)
        assert optimal_time <= even_time * (1 + 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            makespan_optimal_scheme(self.CONFIG, 10, [1.0, -1.0])
        with pytest.raises(ValueError, match="positive"):
            makespan_optimal_scheme(self.CONFIG, 10, [])
        with pytest.raises(ValueError, match=">= 1"):
            makespan_optimal_scheme(self.CONFIG, 0, [1.0, 1.0])

    def test_estimate_makespan_validates_arity(self):
        with pytest.raises(ValueError, match="speeds"):
            estimate_makespan(self.CONFIG, 50, PartitionScheme.even(3), [1.0, 2.0])
