"""Campaign reports and the ``repro.bench verify`` CLI entry point."""

import json

import pytest

from repro.bench.cli import main
from repro.tensor.blas import kernel_library
from repro.tensor.workspace import malloc_policy
from repro.verify import run_verification


class TestVerifyReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_verification(num_seeds=6, base_seed=100)

    def test_clean_campaign_is_ok(self, report):
        assert report.ok
        assert report.num_seeds == 6
        assert len(report.results) == 6

    def test_to_dict_is_json_serialisable(self, report):
        data = json.loads(report.to_json())
        assert data["version"] == 1
        assert data["ok"] is True
        assert data["base_seed"] == 100
        assert data["passed"] == 6
        assert len(data["scenarios"]) == 6
        assert data["failures"] == []

    def test_metrics_are_embedded(self, report):
        assert report.metrics["verify.scenarios_total"]["value"] == 6
        check_counters = [
            key for key in report.metrics if key.startswith("verify.checks_total{")
        ]
        assert any("check=voltage_threaded_vs_run" in key for key in check_counters)
        assert report.metrics["verify.scenario_seconds"]["count"] == 6

    def test_campaign_does_not_pollute_global_registry(self):
        from repro.obs.metrics import get_registry

        before = len(get_registry().snapshot())
        run_verification(num_seeds=2)
        assert len(get_registry().snapshot()) == before

    def test_summary_mentions_counts(self, report):
        assert "6 passed" in report.summary()

    def test_header_names_numpys_blas_and_the_kernel(self, report):
        """NumPy's BLAS, the ``rows_matmul`` kernel's library (or why there
        is none), the probe's verdict at GPT-2's four layer shapes and the
        malloc policy in effect."""
        blas = json.loads(report.to_json())["blas"]
        assert blas == report.blas
        assert set(blas) == {"numpy_blas", "kernel", "allocator", "rows_matmul"}
        assert blas["kernel"] == kernel_library()
        assert blas["allocator"] == malloc_policy()
        assert list(blas["rows_matmul"]) == ["768x2304", "768x768", "768x3072", "3072x768"]
        assert report.summary().splitlines()[0] == (
            f"blas: {blas['numpy_blas']}; kernel: {blas['kernel']}; "
            f"allocator: {blas['allocator']}"
        )


@pytest.mark.slow
class TestExtendedFuzzCampaign:
    """The wide sweep CI's fuzz lane runs; deselect locally with -m 'not slow'."""

    def test_two_hundred_seed_campaign_is_clean(self):
        report = run_verification(num_seeds=200)
        assert report.ok, report.summary()

    def test_wide_campaign_covers_the_scenario_space(self):
        report = run_verification(num_seeds=200)
        configs = [r.config for r in report.results]
        assert {c.family for c in configs} == {"bert", "gpt2", "vit"}
        assert {c.wire_dtype for c in configs} == {"float32", "float16", "int8"}
        assert {c.scheme_kind for c in configs} == {"even", "proportional", "auto", "schedule"}
        assert {c.order_mode for c in configs} == {"adaptive", "naive", "reordered"}
        assert any(c.failures for c in configs)
        assert any(c.devices == 1 for c in configs)


class TestVerifyCli:
    def test_verify_seeds_exits_zero(self, capsys):
        assert main(["verify", "--seeds", "3"]) == 0
        assert "3 passed" in capsys.readouterr().out

    def test_verify_writes_json_report(self, tmp_path, capsys):
        assert main(["verify", "--seeds", "2", "--json", str(tmp_path)]) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "verify.json").read_text())
        assert data["ok"] is True and len(data["scenarios"]) == 2

    def test_replay_prints_each_check(self, capsys):
        assert main(["verify", "--replay", "7"]) == 0
        out = capsys.readouterr().out
        assert "voltage_threaded_vs_run" in out
        assert "single_device_exact" in out
