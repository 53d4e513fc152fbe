"""The command the driver runs, at ``--smoke`` size (tiny models, results
flagged non-comparable) so the whole file stays well under a minute."""

import json
import shutil
import subprocess
import sys

import pytest

import harness

RUN = harness.BENCH_DIR / "run.py"
#: The issue's table: which workload measures which end-to-end metric.
OWNED = {
    "encoder-forward": {"forward_threaded_p50_s", "forward_process_p50_s",
                        "speedup_threaded", "speedup_process"},
    "decode-long": {"decode_single_tokens_per_s", "decode_gathered_tokens_per_s",
                    "decode_distributed_tokens_per_s"},
    "serve-saturated": {"tokens_per_s", "itl_p50_s"},
    "serve-shared-prefix": {"itl_p50_s", "ttft_p50_s"},
}


def _run(workload, trace, tmp_path, seed=0):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "3",
         "--trace", str(trace), "--smoke", "--trace-dir", str(tmp_path), "--out",
         str(tmp_path / "result.json")],
        capture_output=True, text=True, timeout=120, cwd=harness.REPO_ROOT,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines(), json.loads((tmp_path / "result.json").read_text())


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_run_prints_exactly_the_declared_end_to_end_metrics(workload, tmp_path):
    lines, result = _run(workload, 0, tmp_path)
    spec = harness.load_spec()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: metric["unit"] for name, metric in final["metrics"].items()
    }
    assert set(result["owned"]) == OWNED[workload] | {"setup_s", "peak_rss_mb"}
    declared = {m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]}
    printed = {line.split()[0] for line in lines if line and line[0].isalpha() and " " in line}
    assert set(final["metrics"]) < printed and printed - {"info", "failed_share"} <= declared
    assert all(metric["value"] > 0 for metric in final["metrics"].values())
    assert result["comparable"] is False and result["trace_file"] is None
    provenance = result["provenance"]
    assert provenance["blas_threads"] in (1, None) and provenance["K"] == harness.K
    assert provenance["nproc"] >= harness.K and provenance["numpy"] and provenance["python"]
    assert len(result["lane"]["input_sha256"]) == 64


def test_every_end_to_end_metric_has_an_owner():
    declared = {m["name"] for m in harness.load_spec()["end_to_end"]}
    assert set().union(*OWNED.values()) | {"setup_s", "peak_rss_mb"} == declared


def test_same_seed_same_inputs(tmp_path):
    first = _run("decode-long", 0, tmp_path, seed=7)[1]
    again = _run("decode-long", 0, tmp_path, seed=7)[1]
    other = _run("decode-long", 0, tmp_path, seed=8)[1]
    digest = lambda r: r["lane"]["input_sha256"]  # noqa: E731
    assert digest(first) == digest(again) != digest(other)


def test_traced_runs_cover_every_per_layer_metric_and_write_loadable_traces(tmp_path):
    spec = harness.load_spec()
    declared = {m["name"] for m in spec["per_layer"]}
    owned, names = set(), set()
    for workload in harness.WORKLOADS:
        lines, result = _run(workload, 1, tmp_path)
        final = json.loads(lines[-1])
        assert set(final["metrics"]) == declared
        assert {"obs.overhead_share", "obs.spans_per_request"} <= set(result["owned"])
        assert final["metrics"]["obs.spans_per_request"]["value"] > 1
        owned |= set(result["owned"])
        events = json.loads((tmp_path / f"{workload}.trace.json").read_text())["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X" and e["cat"] == "harness"
                 and e["name"] != "harness.origin"]
        assert any(e["cat"] != "harness" for e in events if e.get("ph") == "X")  # program spans are on
        by_id = {e["args"]["span_id"]: e for e in spans}
        names |= {e["name"] for e in spans}
        for event in spans:
            parent = event["args"]["parent"]
            if event["name"] == "request":
                assert parent is None
            else:
                assert by_id[parent]["args"]["request"] == event["args"]["request"]
        if workload == "decode-long":
            for exact in ("engine.steps_total", "systems.combine_bytes_per_token"):
                assert final["metrics"][exact]["value"] == int(final["metrics"][exact]["value"])
    assert owned == declared  # the union over the workloads covers the whole list
    assert {"request", "engine.step", "session.forward", "execute_distributed"} <= names


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(harness.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "decode-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
