"""Tests for fault-tolerant Voltage (failure injection)."""

import numpy as np
import pytest

from repro.cluster.simulator import ClusterSim
from repro.systems import VoltageSystem, base
from repro.systems.base import activation_bytes
from repro.systems.fault_tolerant import (
    AllDevicesFailedError,
    FailureSchedule,
    FaultTolerantVoltageSystem,
)


class TestFailureSchedule:
    def test_dead_before(self):
        schedule = FailureSchedule({0: 2, 3: 5})
        assert schedule.dead_before(2) == set()
        assert schedule.dead_before(3) == {0}
        assert schedule.dead_before(6) == {0, 3}

    def test_dying_at(self):
        schedule = FailureSchedule({0: 2, 1: 2, 3: 5})
        assert schedule.dying_at(2) == {0, 1}
        assert schedule.dying_at(5) == {3}
        assert schedule.dying_at(0) == set()

    def test_validation(self):
        with pytest.raises(ValueError):
            FailureSchedule({-1: 0})
        with pytest.raises(ValueError):
            FailureSchedule({0: -2})

    def test_validate_against_deployment(self):
        schedule = FailureSchedule({1: 3})
        schedule.validate(num_devices=2, num_layers=4)  # fine
        with pytest.raises(ValueError, match="device 1"):
            schedule.validate(num_devices=1, num_layers=4)
        with pytest.raises(ValueError, match="never fire"):
            schedule.validate(num_devices=2, num_layers=3)


class TestOutputCorrectness:
    """The headline property: failures never change the answer."""

    def test_no_failures_matches_plain_voltage(self, bert, cluster4, token_ids):
        plain = VoltageSystem(bert, cluster4).run(token_ids)
        fault_tolerant = FaultTolerantVoltageSystem(bert, cluster4).run(token_ids)
        assert fault_tolerant.latency.phases == plain.latency.phases
        np.testing.assert_array_equal(fault_tolerant.output, plain.output)

    def test_one_failure_mid_inference(self, bert, cluster4, token_ids):
        system = FaultTolerantVoltageSystem(bert, cluster4, failures={1: 1})
        result = system.run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)
        assert result.meta["survivors"] == [0, 2, 3]

    def test_cascading_failures(self, bert, cluster4, token_ids):
        system = FaultTolerantVoltageSystem(bert, cluster4, failures={0: 0, 2: 1, 3: 2})
        result = system.run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)
        assert result.meta["survivors"] == [1]

    def test_failure_before_first_layer(self, bert, cluster4, token_ids):
        system = FaultTolerantVoltageSystem(bert, cluster4, failures={3: 0})
        result = system.run(token_ids)
        np.testing.assert_allclose(result.output, bert(token_ids), atol=1e-4)

    def test_all_devices_failing_raises(self, bert, cluster4, token_ids):
        system = FaultTolerantVoltageSystem(
            bert, cluster4, failures={0: 0, 1: 0, 2: 0, 3: 1}
        )
        with pytest.raises(AllDevicesFailedError):
            system.run(token_ids)


class TestLatencyAccounting:
    def test_detection_timeout_charged_once_per_event(self, bert, cluster4, token_ids):
        system = FaultTolerantVoltageSystem(
            bert, cluster4, failures={0: 1, 1: 1}, detection_timeout_seconds=0.5
        )
        result = system.run(token_ids)
        overhead = result.latency.seconds_of_kind("overhead")
        assert overhead == pytest.approx(0.5)  # two devices, ONE event
        assert result.meta["failure_events"] == [{"layer": 1, "devices": [0, 1]}]

    def test_failure_slows_compute_makespan(self, bert, cluster4, token_ids):
        healthy = FaultTolerantVoltageSystem(bert, cluster4).run(token_ids)
        degraded = FaultTolerantVoltageSystem(
            bert, cluster4, failures={0: 0, 1: 0}, detection_timeout_seconds=0.0
        ).run(token_ids)
        assert degraded.latency.compute_seconds > healthy.latency.compute_seconds

    def test_late_failure_cheaper_than_early(self, bert, cluster4, token_ids):
        """A device dying at the last layer wastes fewer layers than one
        dying at the first."""
        early = FaultTolerantVoltageSystem(
            bert, cluster4, failures={0: 0}, detection_timeout_seconds=0.0
        ).run(token_ids)
        late = FaultTolerantVoltageSystem(
            bert, cluster4, failures={0: bert.num_layers - 1}, detection_timeout_seconds=0.0
        ).run(token_ids)
        assert late.latency.compute_seconds < early.latency.compute_seconds

    def test_all_gathers_go_over_the_survivors(self, bert, cluster4, token_ids):
        """After device 1 dies, each All-Gather is priced over the three
        survivors' chunks: a ring of K with an empty chunk costs more."""
        system = FaultTolerantVoltageSystem(bert, cluster4, failures={1: 1})
        result = system.run(token_ids)
        n, f = len(token_ids), bert.config.hidden_size
        sim = ClusterSim(cluster4)
        gathers = [p for p in result.latency.phases if p.name == "all-gather"]
        assert [p.layer for p in gathers] == list(range(bert.num_layers - 1))
        for phase, parts in zip(gathers, system.layer_parts(n)):
            chunks = [activation_bytes(part.length, f) for part in parts]
            live = [chunk for device, chunk in enumerate(chunks) if device != 1 or phase.layer < 1]
            assert phase.seconds == sim.all_gather(live)
            if phase.layer >= 1:
                assert phase.seconds < sim.all_gather(chunks)


class TestRealRanks:
    """Survivor re-sharding runs on real ranks: a dead rank holds an empty
    partition, and the output is bit-identical to ``run()``'s."""

    def test_two_failures_on_processes_with_overlap(self, bert, cluster4, token_ids):
        system = FaultTolerantVoltageSystem(bert, cluster4, failures={2: 1, 0: 2})
        output, _ = system.execute_distributed(token_ids, runtime="process", overlap=True)
        np.testing.assert_array_equal(output, system.run(token_ids).output)

    def test_all_dead_raises_before_any_rank_starts(
        self, bert, cluster4, token_ids, monkeypatch
    ):
        started = []
        monkeypatch.setattr(base, "serve_once", lambda *args: started.append(args))
        system = FaultTolerantVoltageSystem(
            bert, cluster4, failures={0: 0, 1: 0, 2: 0, 3: 1}
        )
        with pytest.raises(AllDevicesFailedError):
            system.execute_distributed(token_ids)
        assert started == []


class TestValidation:
    def test_unknown_device_rejected(self, bert, cluster4):
        with pytest.raises(ValueError, match="device 9"):
            FaultTolerantVoltageSystem(bert, cluster4, failures={9: 0})

    def test_unreachable_failure_layer_rejected(self, bert, cluster4):
        """Regression: a fail_layer past the model depth used to be accepted
        silently — the injected failure never fired and the test exercising
        it proved nothing."""
        with pytest.raises(ValueError, match="can never fire"):
            FaultTolerantVoltageSystem(bert, cluster4, failures={0: bert.num_layers})

    def test_last_layer_failure_still_accepted(self, bert, cluster4):
        FaultTolerantVoltageSystem(bert, cluster4, failures={0: bert.num_layers - 1})

    def test_negative_timeout_rejected(self, bert, cluster4):
        with pytest.raises(ValueError, match="timeout"):
            FaultTolerantVoltageSystem(
                bert, cluster4, detection_timeout_seconds=-1.0
            )
