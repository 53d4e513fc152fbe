"""Tests for the shared system interface utilities."""

import numpy as np
import pytest

from repro.cluster.timeline import LatencyBreakdown
from repro.systems import VoltageSystem
from repro.systems.base import InferenceResult, activation_bytes


class TestActivationBytes:
    def test_float32_default(self):
        assert activation_bytes(200, 1024) == 200 * 1024 * 4

    def test_custom_itemsize(self):
        assert activation_bytes(200, 1024, itemsize=2) == 200 * 1024 * 2

    def test_zero_rows(self):
        assert activation_bytes(0, 1024) == 0.0


class TestInferenceResult:
    def test_total_seconds_delegates_to_latency(self):
        latency = LatencyBreakdown()
        latency.add("x", "compute", 0.25)
        result = InferenceResult(output=np.zeros(2), latency=latency)
        assert result.total_seconds == pytest.approx(0.25)

    def test_meta_defaults_empty(self):
        result = InferenceResult(output=np.zeros(1), latency=LatencyBreakdown())
        assert result.meta == {}


class TestSystemRegistry:
    def test_repr_mentions_model_and_devices(self, bert, cluster4):
        text = repr(VoltageSystem(bert, cluster4))
        assert "devices=4" in text
        assert bert.config.name in text

    def test_latency_seconds_equals_run_total(self, bert, cluster4, token_ids):
        """A request's latency is its phases, end to end."""
        result = VoltageSystem(bert, cluster4).run(token_ids)
        assert result.total_seconds == pytest.approx(
            sum(phase.seconds for phase in result.latency.phases)
        )

    def test_k_property(self, bert, cluster4):
        assert VoltageSystem(bert, cluster4).k == 4
