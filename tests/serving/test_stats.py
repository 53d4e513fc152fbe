"""Edge-case tests for ServingStats and the served-request lifecycle."""

import numpy as np
import pytest

from repro.serving.arrivals import Request
from repro.serving.stats import ServedRequest, ServingStats


def served(arrival, start, finish, id=0, deadline=None):
    return ServedRequest(
        request=Request(arrival, 8, id=id, deadline=deadline), start=start, finish=finish
    )


class TestServedRequest:
    def test_lifecycle_validation(self):
        with pytest.raises(ValueError, match="lifecycle"):
            served(1.0, 0.5, 2.0)  # started before it arrived
        with pytest.raises(ValueError, match="lifecycle"):
            served(0.0, 2.0, 1.0)  # finished before it started

    def test_latency_decomposition(self):
        s = served(1.0, 1.5, 3.0)
        assert s.waiting == pytest.approx(0.5)
        assert s.service == pytest.approx(1.5)
        assert s.latency == pytest.approx(2.0)

    def test_deadline_missed(self):
        assert served(0.0, 0.0, 2.0, deadline=1.0).deadline_missed
        assert not served(0.0, 0.0, 0.5, deadline=1.0).deadline_missed
        assert not served(0.0, 0.0, 2.0).deadline_missed  # no deadline declared


class TestEmptyAndSingle:
    def test_empty_stream_yields_zero_stats(self):
        """An empty run (all requests shed, or a replica that never received
        one) aggregates to well-defined zeros — it must never raise, because
        the fleet's autoscaler legitimately runs idle replicas."""
        stats = ServingStats.from_served([])
        assert stats.count == 0
        assert stats.mean_latency == stats.p50_latency == stats.p99_latency == 0.0
        assert stats.p95_latency == stats.max_latency == 0.0
        assert stats.mean_waiting == 0.0
        assert stats.throughput_rps == 0.0
        assert stats.makespan == 0.0
        assert stats.deadline_count == stats.deadline_misses == 0
        assert stats.deadline_miss_rate == 0.0
        assert "0 requests" in stats.summary()

    def test_single_request_collapses_all_percentiles(self):
        stats = ServingStats.from_served([served(0.0, 0.5, 2.0)])
        assert stats.count == 1
        assert stats.mean_latency == stats.p50_latency == stats.p99_latency == 2.0
        assert stats.max_latency == 2.0
        assert stats.mean_waiting == pytest.approx(0.5)
        assert stats.makespan == pytest.approx(2.0)
        assert stats.throughput_rps == pytest.approx(0.5)

    def test_single_instant_request_has_infinite_throughput(self):
        """Zero makespan (arrival == finish) must not divide by zero."""
        stats = ServingStats.from_served([served(1.0, 1.0, 1.0)])
        assert stats.makespan == 0.0
        assert stats.throughput_rps == float("inf")


class TestSimultaneousArrivals:
    def test_simultaneous_arrivals_aggregate(self):
        batch = [served(0.0, i * 1.0, (i + 1) * 1.0, id=i) for i in range(4)]
        stats = ServingStats.from_served(batch)
        assert stats.count == 4
        assert stats.max_latency == 4.0
        assert stats.makespan == 4.0
        assert stats.throughput_rps == pytest.approx(1.0)
        # each later request waited one more second than the previous
        assert stats.mean_waiting == pytest.approx(1.5)


class TestSmallSamplePercentiles:
    def test_stats_percentiles(self):
        batch = [served(float(i), float(i), float(i) + 1.0, id=i) for i in range(100)]
        stats = ServingStats.from_served(batch)
        assert stats.mean_latency == pytest.approx(1.0)
        assert stats.p99_latency == pytest.approx(1.0)
        assert stats.count == 100

    def test_percentiles_interpolate_below_100_samples(self):
        """With < 100 samples, p99 must interpolate toward the max rather
        than collapse onto it or fall below p95."""
        batch = [served(0.0, 0.0, 1.0 + i, id=i) for i in range(10)]
        stats = ServingStats.from_served(batch)
        latencies = [s.latency for s in batch]
        assert stats.p50_latency == pytest.approx(np.percentile(latencies, 50))
        assert stats.p95_latency <= stats.p99_latency <= stats.max_latency
        assert stats.p99_latency > stats.p50_latency
        assert stats.p99_latency < stats.max_latency  # interpolated, not clamped

    def test_identical_latencies_degenerate_cleanly(self):
        batch = [served(float(i), float(i), float(i) + 1.0, id=i) for i in range(5)]
        stats = ServingStats.from_served(batch)
        assert stats.p50_latency == stats.p99_latency == stats.max_latency == 1.0


class TestDeadlineAccounting:
    def test_miss_rate_over_deadline_carrying_requests_only(self):
        batch = [
            served(0.0, 0.0, 2.0, id=0, deadline=1.0),  # missed
            served(0.0, 0.0, 0.5, id=1, deadline=1.0),  # met
            served(0.0, 0.0, 9.0, id=2),  # no deadline: excluded from the rate
        ]
        stats = ServingStats.from_served(batch)
        assert stats.deadline_count == 2
        assert stats.deadline_misses == 1
        assert stats.deadline_miss_rate == pytest.approx(0.5)
        assert "1/2 deadline misses" in stats.summary()

    def test_summary_readable(self):
        stats = ServingStats.from_served([served(0.0, 0.0, 0.5), served(1.0, 1.0, 1.5, id=1)])
        assert "p95" in stats.summary()

    def test_no_deadlines_means_zero_rate_and_clean_summary(self):
        stats = ServingStats.from_served([served(0.0, 0.0, 1.0)])
        assert stats.deadline_miss_rate == 0.0
        assert "deadline" not in stats.summary()
