"""Components of the online-serving bench (``repro.bench serve``).

The quick sweep runs in CI's gates lane; these tests cover the pieces
fast — the pass price's agreement with the sequencer, the report
schema/merge, the regression gate, and the committed baseline's invariants
(monotone sweep, overload bound demonstrated).
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import serve
from repro.engine import EngineConfig, InferenceEngine
from repro.fleet import SERVE_DEVICE, make_tier_sequencer, request_seconds
from repro.serving.arrivals import Request
from repro.systems.decode import decode_step_totals, pass_seconds

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_serve.json"


CONFIG = serve._serve_model(quick=True).config


def lone(flight):
    return pass_seconds(CONFIG, SERVE_DEVICE, [flight])


flights = st.lists(
    st.tuples(st.integers(1, 16), st.integers(0, 40), st.booleans()), min_size=1, max_size=6
)


class TestCostModel:
    """The serving price: ``pass_seconds`` on ``SERVE_DEVICE`` per engine
    pass, and a request's lone price built from it."""

    @settings(max_examples=60, deadline=None)
    @given(new=st.integers(1, 32), cached=st.integers(0, 31), wanted=st.booleans())
    def test_step_cost_monotone_in_both_terms(self, new, cached, wanted):
        """A flight's price grows with the rows it brings and the context
        it attends."""
        assert lone((new + 1, cached, wanted)) > lone((new, cached, wanted))
        assert lone((new, cached + 1, wanted)) > lone((new, cached, wanted))

    @settings(max_examples=80, deadline=None)
    @given(flights=flights)
    def test_a_pass_costs_between_its_dearest_flight_and_all_of_them(self, flights):
        """Sharing a pass never costs more than running its flights alone —
        the serve bench's ``slo + S x worst_service`` overload bound rests on
        it — nor less than its dearest flight; and more context never makes
        a pass cheaper."""
        price = pass_seconds(CONFIG, SERVE_DEVICE, flights)
        alone = [lone(flight) for flight in flights]
        assert max(alone) <= price <= sum(alone) * (1 + 1e-12)
        longer = [(new, cached + 1, wanted) for new, cached, wanted in flights]
        assert pass_seconds(CONFIG, SERVE_DEVICE, longer) > price

    def test_request_cost_counts_the_sequencer_forwards(self):
        """A request's price is its lone passes — the prefill and one decode
        forward per later token, the last token committed without one, as
        ``decode_step_totals`` lists them — and is exactly the virtual time
        an engine serving it alone takes."""
        prompt_len, max_new = 5, 4
        totals = decode_step_totals(prompt_len, max_new, CONFIG.max_positions)
        assert totals == [5, 6, 7, 8]
        expected = lone((prompt_len, 0, False)) + sum(lone((1, t - 1, True)) for t in totals[1:])
        assert request_seconds(CONFIG, prompt_len, max_new) == pytest.approx(expected)
        model = serve._serve_model(quick=True)
        engine = InferenceEngine(
            make_tier_sequencer(model, max_new_tokens=max_new), EngineConfig(num_slots=2)
        )
        report = engine.run([Request(0.0, prompt_len, id=0)])
        assert report.makespan == pytest.approx(request_seconds(CONFIG, prompt_len, max_new))

    def test_request_cost_with_no_kept_token_is_zero(self):
        """No token to keep, no forward: neither ``max_new_tokens = 0`` nor a
        prompt already at the position budget costs anything."""
        assert request_seconds(CONFIG, 6, 0) == 0.0
        assert request_seconds(CONFIG, CONFIG.max_positions + 5, 4) == 0.0
        engine = InferenceEngine(
            make_tier_sequencer(serve._serve_model(quick=True), max_new_tokens=0),
            EngineConfig(num_slots=2),
        )
        assert engine.run([Request(0.0, 6, id=0)]).makespan == 0.0


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


def leaf_paths(value, where):
    """Every leaf of a JSON value as (path, parent container, key)."""
    if isinstance(value, dict):
        for key, child in value.items():
            if isinstance(child, (dict, list)):
                yield from leaf_paths(child, f"{where}.{key}")
            else:
                yield f"{where}.{key}", value, key
    elif isinstance(value, list):
        for i, child in enumerate(value):
            if isinstance(child, (dict, list)):
                yield from leaf_paths(child, f"{where}[{i}]")
            else:
                yield f"{where}[{i}]", value, i


def changed(leaf):
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, (int, float)):
        return leaf * 2 + 1
    if leaf is None:
        return 0.0
    return leaf + "x"


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

    def test_any_one_leaf_change_fails_naming_its_path(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        count = len(list(leaf_paths(self.payload(), "modes.quick")))
        for i in range(count):
            run = self.payload()
            path, parent, key = list(leaf_paths(run, "modes.quick"))[i]
            parent[key] = changed(parent[key])
            errors = serve.check_regression(run, "quick", baseline)
            assert errors and errors[0].startswith(f"{path}: "), (path, errors)

    def test_latency_drift_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        errors = serve.check_regression(
            self.payload(p99_latency_s=0.5000001), "quick", baseline
        )
        assert errors == ["modes.quick.sweep[0].p99_latency_s: 0.5000001 != baseline 0.5"]

    def test_shed_rate_drift_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        errors = serve.check_regression(self.payload(shed_rate=0.01), "quick", baseline)
        assert errors and errors[0].startswith("modes.quick.sweep[0].shed_rate: 0.01 ")

    def test_list_length_change_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        run = self.payload()
        run["sweep"].append(dict(run["sweep"][0]))
        errors = serve.check_regression(run, "quick", baseline)
        assert errors == ["modes.quick.sweep: 2 items != baseline 1"]

    def test_missing_key_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        run = self.payload()
        del run["sweep"][0]["throughput_rps"]
        errors = serve.check_regression(run, "quick", baseline)
        assert errors == ["modes.quick.sweep[0].throughput_rps: missing (baseline 10.0)"]
        errors = serve.check_regression(self.payload(), "quick", self.write_baseline(tmp_path, run))
        assert errors == ["modes.quick.sweep[0].throughput_rps: 10.0 is not in the baseline"]

    def test_lost_overload_bound_fails(self, tmp_path):
        """The claim fails on its own, even against a baseline that lost it too."""
        lost = self.payload(bound_held_with_shedding=False)
        baseline = self.write_baseline(tmp_path, lost)
        errors = serve.check_regression(lost, "quick", baseline)
        assert len(errors) == 1 and "bound" in errors[0]

    def test_met_bound_without_shedding_fails(self, tmp_path):
        met = self.payload(bound_exceeded_without_shedding=False)
        errors = serve.check_regression(met, "quick", self.write_baseline(tmp_path, met))
        assert len(errors) == 1 and "no-shedding" in errors[0]

    def test_missing_baseline_and_mode_reported(self, tmp_path):
        assert serve.check_regression(self.payload(), "quick", tmp_path / "nope.json")
        baseline = self.write_baseline(tmp_path, self.payload(), mode="full")
        errors = serve.check_regression(self.payload(), "quick", baseline)
        assert errors and "quick" in errors[0]

    # -- v2 speculative gates --------------------------------------------------

    def test_diverged_outputs_fail(self, tmp_path):
        diverged = self.payload(identical=False)
        errors = serve.check_regression(
            diverged, "quick", self.write_baseline(tmp_path, diverged)
        )
        assert len(errors) == 1 and "lossless" in errors[0]

    def test_changed_output_digest_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        errors = serve.check_regression(
            self.payload(digest="beef"), "quick", baseline
        )
        assert errors[0] == (
            'modes.quick.speculative.configs.baseline.output_digest: "beef" != '
            'baseline "f00d"'
        )

    def test_lost_speedup_fails(self, tmp_path):
        slow = self.payload(speedup=0.97)
        errors = serve.check_regression(slow, "quick", self.write_baseline(tmp_path, slow))
        assert len(errors) == 1 and "speculative-ngram" in errors[0] and "not > 1.0x" in errors[0]

    def test_acceptance_rate_drift_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload(acceptance=0.8))
        errors = serve.check_regression(self.payload(acceptance=0.75), "quick", baseline)
        assert errors and errors[0].startswith(
            "modes.quick.speculative.configs.speculative-ngram.speculative.acceptance_rate: 0.75"
        )

    def test_prefix_hit_rate_drift_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload(hit_rate=0.6))
        errors = serve.check_regression(self.payload(hit_rate=0.3), "quick", baseline)
        assert errors and errors[0].startswith(
            "modes.quick.speculative.configs.speculative-prefix-cache.prefix_cache.hit_rate: 0.3"
        )

    def test_missing_speculative_section_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        bare = self.payload()
        del bare["speculative"]
        errors = serve.check_regression(bare, "quick", baseline)
        assert errors[0].startswith("modes.quick.speculative: missing")
        assert "payload has no 'speculative' section" in errors

    def test_only_the_first_differing_paths_are_listed(self, tmp_path):
        baseline = self.write_baseline(tmp_path, self.payload())
        run = self.payload()
        for _, parent, key in list(leaf_paths(run, "modes.quick"))[:8]:
            parent[key] = changed(parent[key])
        errors = serve.check_regression(run, "quick", baseline)
        assert errors[5] == "... and 3 more differing paths"


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
            "speculative-prefix-cache",
        }
        digests = {entry["output_digest"] for entry in configs.values()}
        assert len(digests) == 1
        assert all(entry["completed"] == spec["workload"]["num_requests"]
                   for entry in configs.values())
        for name, speedup in spec["speedups"].items():
            assert speedup > 1.0, f"{name} shows no speedup"
        for name in ("speculative-ngram", "speculative-prefix-cache"):
            stats = configs[name]["speculative"]
            assert 0.0 < stats["acceptance_rate"] <= 1.0
            assert stats["tokens_per_forward"] > 1.0
        cache = configs["speculative-prefix-cache"]["prefix_cache"]
        assert cache["hits"] > 0 and cache["positions_saved"] > 0
        assert 0.0 < cache["hit_rate"] <= 1.0
