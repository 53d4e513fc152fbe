"""Golden-snapshot determinism: the paper's figures are byte-stable.

Two *fresh* interpreter processes — not two calls in one process, which
would share module state, RNG state and hash seed — must emit byte-identical
FigureResult JSON for Figures 4, 5 and 6 (FLOP model), the communication
and memory tables, the ablations and the Section VI-B headline claims.
This is the reproducibility contract EXPERIMENTS.md sells: anyone
re-running the CLI gets the published numbers, to the last serialized byte.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")

#: The deterministic figure targets (``fig6`` only in its FLOP-model mode:
#: its default mode times this host).
TARGETS = (["fig4"], ["fig5"], ["fig6", "--model"], ["comm"], ["ablations"], ["headline"])


def emit_targets(json_dir: Path, hash_seed: str) -> str:
    """Run ``python -m repro.bench <target> --json <dir>`` for every target,
    each in a fresh process; returns their concatenated stdout."""
    out = []
    for target in TARGETS:
        result = subprocess.run(
            [sys.executable, "-m", "repro.bench", *target, "--json", str(json_dir)],
            env={"PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(result.stdout)
    return "".join(out)


def in_process_payloads() -> dict[str, str]:
    """File name -> JSON text of every target, from direct library calls."""
    from repro.bench import figures

    figs = [
        *figures.figure4().values(),
        *figures.figure5().values(),
        *figures.figure6(mode="model").values(),
        figures.comm_volume_table(),
        figures.memory_tradeoff_table(),
        figures.ablation_order_choice(),
        figures.ablation_heterogeneous(),
        figures.ablation_dynamic_schemes(),
        figures.ablation_comm_precision(),
        figures.ablation_overlap(),
        figures.ablation_decode_attention(),
        figures.fleet_autoscale_timeline(),
    ]
    payloads = {f"{fig.name}.json": fig.to_json() for fig in figs}
    payloads["headline.json"] = json.dumps(figures.headline_summary(), indent=2)
    return payloads


class TestGoldenSnapshot:
    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        first = tmp_path_factory.mktemp("golden_first")
        second = tmp_path_factory.mktemp("golden_second")
        # Different hash seeds on purpose: byte-identity must not depend on
        # dict/set iteration order of the host process.
        out_first = emit_targets(first, hash_seed="0")
        out_second = emit_targets(second, hash_seed="12345")
        return first, second, out_first, out_second

    def test_fresh_processes_emit_byte_identical_json(self, runs):
        first, second, _, _ = runs
        names = sorted(p.name for p in first.glob("*.json"))
        assert names == sorted(p.name for p in second.glob("*.json"))
        assert names == sorted(in_process_payloads()), "every target must emit its JSON"
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                f"{name} differs between two fresh runs"
            )

    def test_stdout_tables_are_identical_too(self, runs):
        _, _, out_first, out_second = runs
        assert out_first == out_second

    def test_snapshot_matches_in_process_result(self, runs):
        """The CLI snapshot and a direct library call agree — no hidden
        CLI-only state feeds a figure."""
        first, _, _, _ = runs
        for name, payload in in_process_payloads().items():
            assert (first / name).read_text() == payload, name
