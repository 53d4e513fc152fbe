"""Tests for the voltage-bench CLI."""

import json

import pytest

from repro.bench.cli import main


class TestCli:
    def test_comm_target_prints_table(self, capsys):
        assert main(["comm"]) == 0
        out = capsys.readouterr().out
        assert "comm_volume" in out
        assert "4x" in out

    def test_headline_target(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "BERT-Large" in out
        assert "communication reduction: 4.0x" in out

    def test_fig4_with_reduced_devices(self, capsys):
        assert main(["fig4", "--devices", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig4a" in out and "fig4c" in out

    def test_fig6_model_mode(self, capsys):
        assert main(["fig6", "--model"]) == 0
        out = capsys.readouterr().out
        assert "fig6a" in out and "mode=model" in out

    def test_ablations_target(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "ablation_orders" in out and "ablation_hetero" in out

    def test_json_output(self, tmp_path, capsys):
        assert main(["comm", "--json", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "comm_volume.json").read_text())
        assert data["name"] == "comm_volume"

    def test_headline_json(self, tmp_path, capsys):
        assert main(["headline", "--json", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "headline.json").read_text())
        assert "workloads" in data

    def test_profile_target(self, capsys):
        assert main(["profile", "--layers", "1", "--words", "8"]) == 0
        out = capsys.readouterr().out
        assert "layer[0]" in out and "cost-model check" in out

    def test_serve_target_runs_sweep_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        assert main(["serve", "--quick", "--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "overload" in printed and "bound" in printed
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-bench-serve/v2"
        assert "quick" in doc["modes"]

    def test_serve_check_gates_against_fresh_baseline(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        assert main(["serve", "--quick", "--output", str(out)]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--quick", "--check",
            "--output", str(out), "--baseline", str(out),
        ]) == 0
        assert "check: within tolerance" in capsys.readouterr().out

    def test_serve_check_missing_baseline_fails(self, tmp_path, capsys):
        assert main([
            "serve", "--quick", "--check",
            "--output", str(tmp_path / "out.json"),
            "--baseline", str(tmp_path / "missing.json"),
        ]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_comm_includes_memory_table(self, capsys):
        assert main(["comm"]) == 0
        assert "memory_tradeoff" in capsys.readouterr().out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig7"])

    def test_perf_target_is_gone(self, capsys):
        """Wall-clock timing lives in benchmarks/e2e only."""
        with pytest.raises(SystemExit) as exc:
            main(["perf"])
        assert exc.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    def test_serving_target_is_gone(self, capsys):
        """The analytic serving-queue sweep is retired; the engine's
        ``serve`` and ``fleet`` sweeps are the serving benchmarks."""
        with pytest.raises(SystemExit) as exc:
            main(["serving"])
        assert exc.value.code == 2
        assert "invalid choice: 'serving'" in capsys.readouterr().err
