"""Golden calibration pins.

The reproduction's headline numbers depend on the frozen calibration
(26 GFLOP/s devices, α = 4 ms, η = 0.55, halving-doubling All-Reduce).
These tests pin them inside tolerance bands so an accidental change to the
cost models, the calibration constants, or the FLOP accounting fails loudly
instead of silently bending every figure.  If you *intend* to re-calibrate,
update these bands AND EXPERIMENTS.md together.
"""

import pytest

from repro.bench.workloads import paper_workloads
from repro.cluster.spec import paper_cluster
from repro.core import complexity
from repro.core.planner import comm_report
from repro.systems.single_device import single_device_timeline
from repro.systems.tensor_parallel import tensor_parallel_timeline
from repro.systems.voltage import voltage_timeline


WORKLOADS = paper_workloads()
TIMELINES = {
    "single": single_device_timeline,
    "voltage": voltage_timeline,
    "tp": tensor_parallel_timeline,
}


def _latency(kind: str, key: str, k: int, bandwidth: float = 500.0) -> float:
    workload = WORKLOADS[key]
    latency, _ = TIMELINES[kind](
        workload.config, workload.n, paper_cluster(k, bandwidth),
        pre_flops=workload.pre_flops, post_flops=workload.post_flops,
    )
    return latency.total_seconds


class TestGoldenLatencies:
    """Absolute seconds, ±10% bands around the recorded EXPERIMENTS.md values."""

    @pytest.mark.parametrize("key,expected", [("bert", 2.48), ("vit", 0.72), ("gpt2", 0.73)])
    def test_single_device(self, key, expected):
        assert _latency("single", key, 1) == pytest.approx(expected, rel=0.10)

    @pytest.mark.parametrize("key,expected", [("bert", 1.66), ("vit", 0.66), ("gpt2", 0.67)])
    def test_voltage_k6(self, key, expected):
        assert _latency("voltage", key, 6) == pytest.approx(expected, rel=0.10)

    def test_tp_k6_bert(self):
        assert _latency("tp", "bert", 6) == pytest.approx(3.61, rel=0.10)

    def test_bert_reduction_band(self):
        reduction = 1 - _latency("voltage", "bert", 6) / _latency("single", "bert", 1)
        assert 0.25 < reduction < 0.40  # paper: 27.9%


class TestGoldenFlops:
    """Exact FLOP pins — these should never drift at all."""

    def test_bert_large_full_layer(self):
        # 24 of these make the ~63 GFLOP single-device forward pass
        flops = complexity.layer_flops(202, 202, 1024, 64, 16, 4096, order=complexity.EQ3)
        assert flops == 2_625_314_816

    def test_bert_large_partition_k6(self):
        flops = complexity.layer_flops(202, 34, 1024, 64, 16, 4096)
        assert flops == 652_869_632

    def test_theorem3_switch_point_bert(self):
        assert complexity.theorem3_min_partitions(202, 1024, 64) == pytest.approx(
            3.959, abs=0.01
        )


class TestGoldenCommunication:
    def test_bert_comm_volume_per_layer_k6(self):
        report = comm_report(WORKLOADS["bert"].config, 202, 6)
        assert report.voltage_bytes_per_layer == pytest.approx(689_493, rel=0.001)
        assert report.reduction_factor == pytest.approx(4.0)

    def test_crossover_structure_stable(self):
        """The qualitative crossovers EXPERIMENTS.md reports."""
        assert _latency("voltage", "bert", 6, 400) < _latency("single", "bert", 1, 400)
        assert _latency("tp", "bert", 6, 900) > _latency("single", "bert", 1, 900)
        ratio_200 = _latency("voltage", "bert", 6, 200) / _latency("single", "bert", 1, 200)
        assert 0.90 < ratio_200 < 1.10  # ~break-even at 200 Mbps
