"""Components of the online-serving bench (``repro.bench serve``).

The quick sweep runs in CI's gates lane; these tests cover the pieces
fast — the analytic cost model's agreement with the sequencer, the report
schema/merge, the regression gate, and the committed baseline's invariants
(monotone sweep, overload bound demonstrated).
"""

import json
from pathlib import Path

import pytest

from repro.bench import serve

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_serve.json"


class TestCostModel:
    def test_step_cost_monotone_in_both_terms(self):
        assert serve.step_cost(2, 0) > serve.step_cost(1, 0)
        assert serve.step_cost(1, 10) > serve.step_cost(1, 0)

    def test_request_cost_counts_the_sequencer_forwards(self):
        """prefill + (max_new - 1) decode forwards, nothing more: the final
        token is appended without a forward, exactly like the sequencer."""
        prompt_len, max_new = 5, 4
        expected = serve.step_cost(prompt_len, 0)
        for i in range(max_new - 1):
            expected += serve.step_cost(1, prompt_len + i)
        assert serve.request_cost(prompt_len, max_new) == pytest.approx(expected)

    def test_request_cost_with_zero_new_tokens_is_prefill_only(self):
        assert serve.request_cost(6, 0) == pytest.approx(serve.step_cost(6, 0))


def speculative_section(
    digest="f00d", identical=True, speedup=1.3, acceptance=0.8, hit_rate=0.6
):
    """A minimal, internally consistent v2 'speculative' payload section."""
    return {
        "configs": {
            "baseline": {"tokens_per_s": 100.0, "output_digest": digest},
            "speculative-ngram": {
                "tokens_per_s": 100.0 * speedup,
                "output_digest": digest,
                "speculative": {"acceptance_rate": acceptance},
            },
            "speculative-prefix-cache": {
                "tokens_per_s": 100.0 * speedup * 1.1,
                "output_digest": digest,
                "speculative": {"acceptance_rate": acceptance},
                "prefix_cache": {"hit_rate": hit_rate},
            },
        },
        "identical_outputs": identical,
        "speedups": {
            "speculative-ngram": speedup,
            "speculative-prefix-cache": speedup * 1.1,
        },
    }


class TestReportFile:
    def payload(self, p99=0.5, **spec_overrides):
        return {
            "sweep": [
                {
                    "offered_ratio": 1.0,
                    "p50_latency_s": 0.1,
                    "p99_latency_s": p99,
                    "shed_rate": 0.0,
                    "throughput_rps": 10.0,
                }
            ],
            "overload": {
                "latency_bound_s": 1.0,
                "with_shedding": {"p99_latency_s": 0.6},
                "without_shedding": {"p99_latency_s": 4.0},
                "bound_held_with_shedding": True,
                "bound_exceeded_without_shedding": True,
            },
            "speculative": speculative_section(**spec_overrides),
        }

    def test_emit_writes_schema_and_merges_modes(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        serve.emit_report(self.payload(p99=0.5), "quick", path)
        serve.emit_report(self.payload(p99=0.7), "full", path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == serve.SCHEMA
        assert set(doc["modes"]) == {"quick", "full"}
        assert doc["modes"]["quick"]["sweep"][0]["p99_latency_s"] == 0.5

    def test_emit_replaces_corrupt_file(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text("{not json")
        doc = serve.emit_report(self.payload(), "quick", path)
        assert doc["schema"] == serve.SCHEMA


class TestRegressionGate:
    def write_baseline(self, tmp_path, payload, mode="quick"):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": serve.SCHEMA, "modes": {mode: payload}}))
        return path

    SPEC_KEYS = ("digest", "identical", "speedup", "acceptance", "hit_rate")

    def payload(self, **overrides):
        spec_overrides = {k: overrides.pop(k) for k in self.SPEC_KEYS if k in overrides}
        base = TestReportFile().payload(**spec_overrides)
        base["sweep"][0].update(
            {k: v for k, v in overrides.items() if k in base["sweep"][0]}
        )
        for key in ("bound_held_with_shedding", "bound_exceeded_without_shedding"):
            if key in overrides:
                base["overload"][key] = overrides[key]
        return base

    def test_identical_run_passes(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        assert serve.check_regression(self.payload(), "quick", baseline) == []

    def test_latency_drift_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        errors = serve.check_regression(
            self.payload(p99_latency_s=2.0), "quick", baseline
        )
        assert errors and "p99_latency_s" in errors[0]

    def test_shed_rate_drift_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        errors = serve.check_regression(self.payload(shed_rate=0.2), "quick", baseline)
        assert errors and "shed rate" in errors[0]

    def test_lost_overload_bound_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        errors = serve.check_regression(
            self.payload(bound_held_with_shedding=False), "quick", baseline
        )
        assert errors and "bound" in errors[0]

    def test_missing_baseline_and_mode_reported(self, tmp_path):
        assert serve.check_regression(self.payload(), "quick", tmp_path / "nope.json")
        baseline = self.write_baseline(tmp_path, self.payload(), mode="full")
        errors = serve.check_regression(self.payload(), "quick", baseline)
        assert errors and "quick" in errors[0]

    # -- v2 speculative gates --------------------------------------------------

    def test_diverged_outputs_fail(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        errors = serve.check_regression(
            self.payload(identical=False), "quick", baseline
        )
        assert any("lossless" in e for e in errors)

    def test_changed_output_digest_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        errors = serve.check_regression(
            self.payload(digest="beef"), "quick", baseline
        )
        assert any("digest" in e and "tokens changed" in e for e in errors)

    def test_lost_speedup_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        errors = serve.check_regression(self.payload(speedup=0.97), "quick", baseline)
        assert any("not > 1.0x" in e for e in errors)

    def test_acceptance_rate_drift_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload(acceptance=0.8))
        assert serve.check_regression(self.payload(acceptance=0.75), "quick", baseline) == []
        errors = serve.check_regression(self.payload(acceptance=0.6), "quick", baseline)
        assert any("acceptance_rate" in e for e in errors)

    def test_prefix_hit_rate_drift_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload(hit_rate=0.6))
        errors = serve.check_regression(self.payload(hit_rate=0.3), "quick", baseline)
        assert any("hit_rate" in e for e in errors)

    def test_missing_speculative_section_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        bare = self.payload()
        del bare["speculative"]
        errors = serve.check_regression(bare, "quick", baseline)
        assert any("speculative" in e for e in errors)


class TestCommittedBaseline:
    """The repo-root BENCH_serve.json is what CI gates against — it must
    stay machine-readable and keep demonstrating the claims."""

    @pytest.fixture(scope="class")
    def doc(self):
        return json.loads(BASELINE.read_text())

    def test_schema_and_modes(self, doc):
        assert doc["schema"] == serve.SCHEMA
        assert set(doc["modes"]) >= {"quick", "full"}

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_sweep_is_monotone_in_offered_load(self, doc, mode):
        sweep = doc["modes"][mode]["sweep"]
        ratios = [point["offered_ratio"] for point in sweep]
        assert ratios == sorted(ratios) and len(ratios) >= 4
        p50s = [point["p50_latency_s"] for point in sweep]
        # queueing theory: latency rises with offered load (weakly, to
        # absorb the flat low-load region)
        assert all(b >= a * 0.9 for a, b in zip(p50s, p50s[1:]))
        assert sweep[-1]["shed_rate"] > 0  # overload end of the sweep sheds
        assert sweep[0]["shed_rate"] == 0  # light load does not

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_overload_comparison_demonstrates_the_bound(self, doc, mode):
        overload = doc["modes"][mode]["overload"]
        assert overload["bound_held_with_shedding"]
        assert overload["bound_exceeded_without_shedding"]
        assert (
            overload["with_shedding"]["p99_latency_s"]
            <= overload["latency_bound_s"]
            < overload["without_shedding"]["p99_latency_s"]
        )

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_slot_occupancy_rises_with_load(self, doc, mode):
        sweep = doc["modes"][mode]["sweep"]
        assert sweep[-1]["mean_slot_occupancy"] > sweep[0]["mean_slot_occupancy"]
        assert all(0 <= point["mean_slot_occupancy"] <= 1 for point in sweep)

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_speculative_section_demonstrates_the_claims(self, doc, mode):
        """The committed comparison must show what the PR claims: lossless
        speculation with > 1x tokens/s on every configuration, and the
        prefix cache actually serving hits."""
        spec = doc["modes"][mode]["speculative"]
        assert spec["identical_outputs"] is True
        configs = spec["configs"]
        assert set(configs) == {
            "baseline",
            "speculative-ngram",
            "speculative-draft",
            "speculative-prefix-cache",
        }
        digests = {entry["output_digest"] for entry in configs.values()}
        assert len(digests) == 1
        assert all(entry["completed"] == spec["workload"]["num_requests"]
                   for entry in configs.values())
        for name, speedup in spec["speedups"].items():
            assert speedup > 1.0, f"{name} shows no speedup"
        for name in ("speculative-ngram", "speculative-draft", "speculative-prefix-cache"):
            stats = configs[name]["speculative"]
            assert 0.0 < stats["acceptance_rate"] <= 1.0
            assert stats["tokens_per_forward"] > 1.0
        cache = configs["speculative-prefix-cache"]["prefix_cache"]
        assert cache["hits"] > 0 and cache["positions_saved"] > 0
        assert 0.0 < cache["hit_rate"] <= 1.0
