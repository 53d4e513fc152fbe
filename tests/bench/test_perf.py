"""Components of the allocation-aware perf suite (``repro.bench perf``).

The full suite times real workloads and is exercised by the CI perf-smoke
lane; these tests cover the pieces at toy sizes — the pinned legacy
reference, the report schema/merge, and the ratio-based regression gate.
"""

import json

import numpy as np
import pytest

from repro.bench import perf
from repro.models import GPT2Model, tiny_config


@pytest.fixture
def gpt2():
    cfg = tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2)
    return GPT2Model(cfg, rng=np.random.default_rng(10))


class TestLegacyReference:
    def test_legacy_decode_emits_same_tokens(self, gpt2):
        """The pinned pre-optimisation reference must stay functionally
        equivalent — the speedup ratio is meaningless otherwise."""
        prompt = np.array([3, 17, 42, 7], dtype=np.int64)
        optimized = gpt2.generate_cached(prompt, max_new_tokens=6)
        legacy = perf._legacy_generate_cached(gpt2, prompt, max_new_tokens=6)
        np.testing.assert_array_equal(legacy, optimized)

    def test_legacy_cache_concatenates(self, rng):
        cache = perf._LegacyLayerKVCache()
        k = rng.normal(size=(2, 2, 8))
        cache.append(k, k.copy())
        k_all, _ = cache.append(k, k.copy())
        assert cache.length == 4
        assert k_all.shape == (2, 4, 8)


class TestMeasurement:
    def test_time_samples_shape(self):
        samples = perf._time_samples(lambda: None, repeats=3, warmup=1)
        assert len(samples) == 3
        assert all(s >= 0 for s in samples)

    def test_tracemalloc_peak_sees_allocation(self):
        peak = perf._tracemalloc_peak(lambda: np.zeros(1_000_000, dtype=np.float64))
        assert peak >= 8_000_000


class TestReportFile:
    def payload(self, ratio=10.0):
        return {
            "workloads": {"gpt2_cached_decode": {"median_s": 0.1}},
            "derived": {
                "cached_decode_speedup_vs_legacy": ratio,
                "cached_decode_peak_drop_vs_legacy": 5.0,
            },
        }

    def test_emit_writes_schema(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        perf.emit_report(self.payload(), "quick", path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == perf.SCHEMA
        assert "quick" in doc["modes"]

    def test_emit_merges_modes(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        perf.emit_report(self.payload(ratio=10.0), "quick", path)
        perf.emit_report(self.payload(ratio=20.0), "full", path)
        doc = json.loads(path.read_text())
        assert set(doc["modes"]) == {"quick", "full"}
        assert doc["modes"]["quick"]["derived"]["cached_decode_speedup_vs_legacy"] == 10.0

    def test_emit_replaces_corrupt_file(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text("{not json")
        doc = perf.emit_report(self.payload(), "quick", path)
        assert doc["schema"] == perf.SCHEMA

    def test_committed_baseline_matches_schema(self):
        """The baseline at the repo root must stay machine-readable in the
        documented shape — CI's --check depends on it."""
        from pathlib import Path

        baseline = Path(__file__).resolve().parents[2] / "BENCH_perf.json"
        doc = json.loads(baseline.read_text())
        assert doc["schema"] == perf.SCHEMA
        for mode in ("full", "quick"):
            payload = doc["modes"][mode]
            decode = payload["workloads"]["gpt2_cached_decode"]
            assert decode["median_s"] > 0
            assert decode["samples_s"]
            assert decode["tracemalloc_peak_bytes"] > 0
            assert payload["derived"]["cached_decode_speedup_vs_legacy"] >= 5.0
            assert payload["derived"]["cached_decode_peak_drop_vs_legacy"] >= 3.0


class TestRegressionGate:
    def payload(self, ratio):
        return {"derived": {"cached_decode_speedup_vs_legacy": ratio,
                            "cached_decode_peak_drop_vs_legacy": 5.0}}

    def write_baseline(self, tmp_path, ratio, mode="quick"):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"schema": perf.SCHEMA, "modes": {mode: self.payload(ratio)}}
        ))
        return path

    def test_within_factor_passes(self, tmp_path):
        baseline = self.write_baseline(tmp_path, ratio=10.0)
        assert perf.check_regression(self.payload(6.0), "quick", baseline) == []

    def test_regression_beyond_factor_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, ratio=10.0)
        errors = perf.check_regression(self.payload(4.0), "quick", baseline)
        assert errors and "regressed" in errors[0]

    def test_missing_baseline_reported(self, tmp_path):
        errors = perf.check_regression(self.payload(10.0), "quick", tmp_path / "nope.json")
        assert errors

    def test_missing_mode_reported(self, tmp_path):
        baseline = self.write_baseline(tmp_path, ratio=10.0, mode="full")
        errors = perf.check_regression(self.payload(10.0), "quick", baseline)
        assert errors and "quick" in errors[0]

    def test_wrong_schema_reported(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": "other/v0", "modes": {}}))
        errors = perf.check_regression(self.payload(10.0), "quick", path)
        assert errors and "schema" in errors[0]

    def overlap_payload(self, exposed, full, saving=0.01):
        payload = self.payload(10.0)
        payload["derived"]["voltage_exposed_comm_per_layer_s"] = exposed
        payload["derived"]["voltage_modeled_comm_per_layer_s"] = full
        payload["derived"]["voltage_overlap_modeled_saving_s"] = saving
        return payload

    def test_overlap_invariants_pass(self, tmp_path):
        baseline = self.write_baseline(tmp_path, ratio=10.0)
        payload = self.overlap_payload(exposed=[0.01, 0.01], full=[0.012, 0.012])
        assert perf.check_regression(payload, "quick", baseline) == []

    def test_overlap_exposed_exceeding_blocking_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, ratio=10.0)
        payload = self.overlap_payload(exposed=[0.02, 0.01], full=[0.012, 0.012])
        errors = perf.check_regression(payload, "quick", baseline)
        assert errors and "exceeds" in errors[0] and "layer 0" in errors[0]

    def test_negative_overlap_saving_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path, ratio=10.0)
        payload = self.overlap_payload(exposed=[0.01], full=[0.012], saving=-1e-6)
        errors = perf.check_regression(payload, "quick", baseline)
        assert errors and "saving" in errors[0]

    def test_payload_without_overlap_fields_still_validates(self, tmp_path):
        """Pre-overlap baselines/payloads must not trip the new invariants."""
        baseline = self.write_baseline(tmp_path, ratio=10.0)
        assert perf.check_regression(self.payload(9.0), "quick", baseline) == []


class TestDecodeAttentionGate:
    def payload(self, combine=1000, gather_steps=None, combine_steps=None):
        payload = {"derived": {"cached_decode_speedup_vs_legacy": 10.0,
                               "cached_decode_peak_drop_vs_legacy": 5.0}}
        derived = payload["derived"]
        derived["voltage_decode_combine_bytes"] = combine
        if gather_steps is not None:
            derived["voltage_decode_per_step_gather_bytes"] = gather_steps
        if combine_steps is not None:
            derived["voltage_decode_per_step_combine_bytes"] = combine_steps
        return payload

    def write_baseline(self, tmp_path, combine=1000):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"schema": perf.SCHEMA, "modes": {"quick": self.payload(combine)}}
        ))
        return path

    def test_matching_combine_bytes_pass(self, tmp_path):
        baseline = self.write_baseline(tmp_path, combine=1000)
        assert perf.check_regression(self.payload(1000), "quick", baseline) == []

    def test_changed_combine_bytes_fail_exactly(self, tmp_path):
        baseline = self.write_baseline(tmp_path, combine=1000)
        errors = perf.check_regression(self.payload(1001), "quick", baseline)
        assert errors and "combine bytes" in errors[0]

    def test_changed_head_exchange_bytes_fail_exactly(self, tmp_path):
        """The sharded head's exchange is its own exact count beside the
        K/V-gather and combine-stats ones (absent from old baselines)."""
        path = tmp_path / "baseline.json"
        base = self.payload()
        base["derived"]["voltage_decode_head_bytes"] = 3344
        path.write_text(json.dumps({"schema": perf.SCHEMA, "modes": {"quick": base}}))
        now = self.payload()
        assert perf.check_regression(now, "quick", path) == []
        now["derived"]["voltage_decode_head_bytes"] = 3344
        assert perf.check_regression(now, "quick", path) == []
        now["derived"]["voltage_decode_head_bytes"] = 3360
        errors = perf.check_regression(now, "quick", path)
        assert errors and "head exchange bytes" in errors[0]

    def test_flat_combine_profile_passes(self, tmp_path):
        baseline = self.write_baseline(tmp_path)
        payload = self.payload(
            combine_steps=[900, 64, 64, 64], gather_steps=[900, 100, 110, 120]
        )
        assert perf.check_regression(payload, "quick", baseline) == []

    def test_growing_combine_profile_fails(self, tmp_path):
        """The whole point of the mode: decode-step combine bytes may not
        grow with the context (step 0, the prefill, is exempt)."""
        baseline = self.write_baseline(tmp_path)
        payload = self.payload(combine_steps=[900, 64, 66, 68])
        errors = perf.check_regression(payload, "quick", baseline)
        assert errors and "not flat" in errors[0]

    def test_flat_gather_profile_fails(self, tmp_path):
        baseline = self.write_baseline(tmp_path)
        payload = self.payload(gather_steps=[900, 100, 100, 100])
        errors = perf.check_regression(payload, "quick", baseline)
        assert errors and "grow" in errors[0]

    def test_payload_without_decode_attn_fields_still_validates(self, tmp_path):
        baseline = self.write_baseline(tmp_path)
        minimal = {"derived": {"cached_decode_speedup_vs_legacy": 10.0}}
        assert perf.check_regression(minimal, "quick", baseline) == []
