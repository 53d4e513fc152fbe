"""Components of the fleet bench (``repro.bench fleet``).

The full sweep runs in CI's fleet lane; these tests cover the pieces fast —
report schema/merge, the regression gate's exact comparison and claim
flags, the committed baseline's invariants (autoscale demo demonstrated,
digests present), and byte-identical payload determinism across two fresh
runs of the quick sweep.
"""

import json
from pathlib import Path

import pytest

from repro.bench import fleet as fleet_bench

from .test_serve_bench import changed, leaf_paths

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_fleet.json"


def sweep_point(**overrides):
    point = {
        "policy": "least-loaded",
        "requests": 60,
        "completed": 60,
        "shed": 0,
        "shed_rate": 0.0,
        "deadline_miss_rate": 0.0,
        "p50_latency_s": 0.1,
        "p99_latency_s": 0.4,
        "throughput_rps": 20.0,
        "replicas_spawned": 4,
        "peak_replicas": 4,
        "mean_replicas": 2.5,
        "scale_ups": 3,
        "scale_downs": 2,
        "routing_digest": "aaaa",
        "outputs_digest": "bbbb",
    }
    point.update(overrides)
    return point


def payload(**overrides):
    doc = {
        "workload": {"trace_digest": "cafe"},
        "sweep": [sweep_point()],
        "autoscale": {
            "trace": "diurnal@v1",
            "latency_bound_s": 0.65,
            "fixed": {"shed_rate": 0.5, "deadline_miss_rate": 0.0,
                      "p99_latency_s": 0.4},
            "autoscaled": {"peak_replicas": 4, "mean_replicas": 2.5,
                           "shed_rate": 0.0, "deadline_miss_rate": 0.0,
                           "p99_latency_s": 0.35},
            "fixed_sheds_or_misses": True,
            "autoscaled_bound_held": True,
            "autoscaled_halves_shed": True,
        },
    }
    for key, value in overrides.items():
        if key in doc["autoscale"]:
            doc["autoscale"][key] = value
        elif key in doc["sweep"][0]:
            doc["sweep"][0][key] = value
        else:
            doc["workload"][key] = value
    return doc


class TestReportFile:
    def test_emit_writes_schema_and_merges_modes(self, tmp_path):
        path = tmp_path / "BENCH_fleet.json"
        fleet_bench.emit_report(payload(p99_latency_s=0.4), "quick", path)
        fleet_bench.emit_report(payload(p99_latency_s=0.3), "full", path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == fleet_bench.SCHEMA
        assert set(doc["modes"]) == {"quick", "full"}
        assert doc["modes"]["quick"]["sweep"][0]["p99_latency_s"] == 0.4

    def test_emit_replaces_corrupt_file(self, tmp_path):
        path = tmp_path / "BENCH_fleet.json"
        path.write_text("{not json")
        doc = fleet_bench.emit_report(payload(), "quick", path)
        assert doc["schema"] == fleet_bench.SCHEMA


class TestRegressionGate:
    def write_baseline(self, tmp_path, doc, mode="quick"):
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps({"schema": fleet_bench.SCHEMA, "modes": {mode: doc}})
        )
        return path

    def test_identical_run_passes(self, tmp_path):
        baseline = self.write_baseline(tmp_path, payload())
        assert fleet_bench.check_regression(payload(), "quick", baseline) == []

    def test_any_one_leaf_change_fails_naming_its_path(self, tmp_path):
        baseline = self.write_baseline(tmp_path, payload())
        count = len(list(leaf_paths(payload(), "modes.quick")))
        for i in range(count):
            run = payload()
            path, parent, key = list(leaf_paths(run, "modes.quick"))[i]
            parent[key] = changed(parent[key])
            errors = fleet_bench.check_regression(run, "quick", baseline)
            assert errors and errors[0].startswith(f"{path}: "), (path, errors)

    def test_latency_drift_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, payload())
        errors = fleet_bench.check_regression(
            payload(p99_latency_s=0.41), "quick", baseline
        )
        assert errors == ["modes.quick.sweep[0].p99_latency_s: 0.41 != baseline 0.4"]

    def test_rate_and_replica_drift_fail(self, tmp_path):
        baseline = self.write_baseline(tmp_path, payload())
        errors = fleet_bench.check_regression(payload(shed_rate=0.01), "quick", baseline)
        assert errors and errors[0].startswith("modes.quick.sweep[0].shed_rate: 0.01 ")
        errors = fleet_bench.check_regression(payload(peak_replicas=5), "quick", baseline)
        assert errors == ["modes.quick.sweep[0].peak_replicas: 5 != baseline 4"]

    def test_digest_change_fails_exactly(self, tmp_path):
        baseline = self.write_baseline(tmp_path, payload())
        errors = fleet_bench.check_regression(
            payload(routing_digest="ffff"), "quick", baseline
        )
        assert errors and "sweep[0].routing_digest" in errors[0]
        errors = fleet_bench.check_regression(
            payload(outputs_digest="ffff"), "quick", baseline
        )
        assert errors and "sweep[0].outputs_digest" in errors[0]

    def test_trace_digest_mismatch_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, payload())
        errors = fleet_bench.check_regression(
            payload(trace_digest="beef"), "quick", baseline
        )
        assert errors == ['modes.quick.workload.trace_digest: "beef" != baseline "cafe"']

    def test_sweep_length_and_missing_key_fail(self, tmp_path):
        baseline = self.write_baseline(tmp_path, payload())
        longer = payload()
        longer["sweep"].append(sweep_point(policy="affinity"))
        errors = fleet_bench.check_regression(longer, "quick", baseline)
        assert errors == ["modes.quick.sweep: 2 items != baseline 1"]
        bare = payload()
        del bare["sweep"][0]["mean_replicas"]
        errors = fleet_bench.check_regression(bare, "quick", baseline)
        assert errors == ["modes.quick.sweep[0].mean_replicas: missing (baseline 2.5)"]

    def test_lost_demo_flags_fail(self, tmp_path):
        """Each claim fails on its own, even against a baseline that lost it too."""
        for flag in (
            "fixed_sheds_or_misses",
            "autoscaled_bound_held",
            "autoscaled_halves_shed",
        ):
            lost = payload(**{flag: False})
            baseline = self.write_baseline(tmp_path, lost)
            errors = fleet_bench.check_regression(lost, "quick", baseline)
            assert len(errors) == 1, f"clearing {flag} should fail the gate"

    def test_policy_set_change_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, payload())
        changed_run = payload()
        changed_run["sweep"][0]["policy"] = "warm-random"
        errors = fleet_bench.check_regression(changed_run, "quick", baseline)
        assert errors == [
            'modes.quick.sweep[0].policy: "warm-random" != baseline "least-loaded"'
        ]

    def test_missing_baseline_and_mode_reported(self, tmp_path):
        assert fleet_bench.check_regression(
            payload(), "quick", tmp_path / "nope.json"
        )
        baseline = self.write_baseline(tmp_path, payload(), mode="full")
        errors = fleet_bench.check_regression(payload(), "quick", baseline)
        assert errors and "quick" in errors[0]


class TestSweepDeterminism:
    def test_quick_sweep_payload_is_byte_identical_across_runs(self):
        a = fleet_bench.run_fleet_sweep(quick=True, seed=0)
        b = fleet_bench.run_fleet_sweep(quick=True, seed=0)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_the_run(self):
        a = fleet_bench.run_fleet_sweep(quick=True, seed=0)
        b = fleet_bench.run_fleet_sweep(quick=True, seed=1)
        assert a["workload"]["trace_digest"] != b["workload"]["trace_digest"]


class TestCommittedBaseline:
    """The repo-root BENCH_fleet.json is what CI gates against — it must
    stay machine-readable and keep demonstrating the autoscaling claim."""

    @pytest.fixture(scope="class")
    def doc(self):
        return json.loads(BASELINE.read_text())

    def test_schema_and_modes(self, doc):
        assert doc["schema"] == fleet_bench.SCHEMA
        assert set(doc["modes"]) >= {"quick", "full"}

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_every_policy_present_with_digests(self, doc, mode):
        sweep = doc["modes"][mode]["sweep"]
        from repro.fleet import ROUTER_POLICIES

        assert [p["policy"] for p in sweep] == list(ROUTER_POLICIES)
        for point in sweep:
            assert point["routing_digest"] and point["outputs_digest"]
            assert point["requests"] == point["completed"] + point["shed"]
            assert 0.0 <= point["shed_rate"] <= 1.0
            assert point["peak_replicas"] >= 1

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_autoscale_demo_demonstrated(self, doc, mode):
        autoscale = doc["modes"][mode]["autoscale"]
        assert autoscale["fixed_sheds_or_misses"]
        assert autoscale["autoscaled_bound_held"]
        assert autoscale["autoscaled_halves_shed"]
        assert autoscale["autoscaled"]["peak_replicas"] > 1
        assert (
            autoscale["autoscaled"]["p99_latency_s"] <= autoscale["latency_bound_s"]
        )
