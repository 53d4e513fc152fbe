"""Direct unit tests for the protocols' weight-free latency timelines.

(That each system's ``run()`` returns its timeline's breakdown lives in
``test_analytic_consistency.py``; these cover behaviours of the timelines
themselves — monotonicities, phase structure, parameter effects.)
"""

import pytest

from repro.cluster.spec import ClusterSpec, paper_cluster
from repro.models.config import tiny_config
from repro.systems.single_device import single_device_timeline
from repro.systems.tensor_parallel import tensor_parallel_timeline
from repro.systems.voltage import voltage_timeline

CONFIG = tiny_config(num_layers=4)
N = 40


def latency(timeline, cluster, n=N, **settings):
    """``timeline``'s breakdown of a length-``n`` request on ``cluster``."""
    breakdown, _ = timeline(CONFIG, n, cluster, **settings)
    return breakdown


class TestPhaseStructure:
    def test_single_device_phase_count(self):
        # pre + ship + 4 layers + return + post
        assert len(latency(single_device_timeline, paper_cluster(1)).phases) == 8

    def test_voltage_phase_count(self):
        # pre + broadcast + 4x(compute+comm) + post
        assert len(latency(voltage_timeline, paper_cluster(4)).phases) == 11

    def test_tp_phase_count(self):
        # pre + broadcast + 4x(compute+comm) + return + post
        assert len(latency(tensor_parallel_timeline, paper_cluster(4)).phases) == 12


class TestMonotonicities:
    def test_all_models_improve_with_bandwidth(self):
        for timeline in (voltage_timeline, tensor_parallel_timeline):
            slow = latency(timeline, paper_cluster(4, 100)).total_seconds
            fast = latency(timeline, paper_cluster(4, 1000)).total_seconds
            assert fast < slow

    def test_latency_grows_with_sequence_length(self):
        for timeline in (
            single_device_timeline,
            voltage_timeline,
            tensor_parallel_timeline,
        ):
            short = latency(timeline, paper_cluster(4), n=16).total_seconds
            long = latency(timeline, paper_cluster(4), n=64).total_seconds
            assert long > short, timeline.__name__

    def test_voltage_compute_shrinks_with_devices(self):
        c2 = latency(voltage_timeline, paper_cluster(2)).compute_seconds
        c6 = latency(voltage_timeline, paper_cluster(6)).compute_seconds
        assert c6 < c2


class TestParameters:
    def test_wire_itemsize_scales_allgather_only(self):
        fp32 = latency(voltage_timeline, paper_cluster(4), wire_itemsize=4)
        int8 = latency(voltage_timeline, paper_cluster(4), wire_itemsize=1)
        assert int8.comm_seconds < fp32.comm_seconds
        assert int8.compute_seconds == pytest.approx(fp32.compute_seconds)
        # the float32 input broadcast is unchanged
        fp32_bcast = next(p for p in fp32.phases if p.name == "broadcast input")
        int8_bcast = next(p for p in int8.phases if p.name == "broadcast input")
        assert fp32_bcast.seconds == int8_bcast.seconds

    def test_terminal_flops_accounted(self):
        base = latency(single_device_timeline, paper_cluster(1))
        heavy = latency(
            single_device_timeline, paper_cluster(1), pre_flops=10**9, post_flops=10**9
        )
        assert heavy.total_seconds > base.total_seconds

    def test_heterogeneous_cluster_slowest_gates_voltage(self):
        balanced = ClusterSpec.heterogeneous([26.0, 26.0])
        skewed = ClusterSpec.heterogeneous([1.0, 51.0])  # same total speed
        even_balanced = latency(voltage_timeline, balanced).compute_seconds
        even_skewed = latency(voltage_timeline, skewed).compute_seconds
        assert even_skewed > even_balanced  # even split stalls on the slow device

    def test_custom_scheme_changes_makespan(self):
        from repro.core.partition import PartitionScheme

        cluster = ClusterSpec.heterogeneous([1.0, 10.0])
        even = latency(voltage_timeline, cluster).compute_seconds
        tuned = latency(
            voltage_timeline, cluster, scheme=PartitionScheme.proportional([1.0, 10.0])
        ).compute_seconds
        assert tuned < even
