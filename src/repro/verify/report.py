"""The fuzzing loop and its machine-readable report.

``run_verification(num_seeds)`` samples that many scenarios, runs each
through :func:`repro.verify.runner.run_scenario`, shrinks any failure to a
minimal reproducing config, and returns a :class:`VerifyReport` whose
``to_dict()`` is stable JSON (consumed by CI and by
``python -m repro.bench verify``).

Progress is recorded through :mod:`repro.obs`: the loop maintains
``verify.*`` counters and a per-scenario wall-time histogram in a dedicated
:class:`MetricsRegistry`, whose snapshot is embedded in the report — the
same observability path every other experiment in this repo uses.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.models.config import gpt2_config
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.tensor.blas import kernel_library, rows_matmul_probe
from repro.tensor.workspace import malloc_policy
from repro.verify.runner import ScenarioResult, default_voltage_factory, run_scenario
from repro.verify.scenario import ScenarioConfig, sample_scenario
from repro.verify.shrink import shrink_config

__all__ = ["VerifyReport", "run_verification", "replay_seed", "blas_identity"]

REPORT_VERSION = 1


def blas_identity() -> dict:
    """Which arithmetic the bit-identity checks ran on, for the report
    header: the BLAS NumPy was built against (``np.show_config``), the
    kernel library's path (``rows_matmul`` and ``screen_top2``; or why
    there is none), the verdict
    its probe reaches at GPT-2's four layer-matrix shapes (seeded stand-in
    weights, dropped at once) and the malloc policy in effect (one glibc
    arena, or why not)."""
    numpy_blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config = gpt2_config()
    f, ffn = config.hidden_size, config.ffn_dim
    rng = np.random.default_rng(0)
    return {
        "numpy_blas": f"{numpy_blas.get('name')} {numpy_blas.get('version')}",
        "kernel": kernel_library(),
        "allocator": malloc_policy(),
        "rows_matmul": {
            f"{depth}x{width}": rows_matmul_probe(
                rng.standard_normal((depth, width), dtype=np.float32)
            )
            for depth, width in ((f, 3 * f), (f, f), (f, ffn), (ffn, f))
        },
    }


@dataclass
class VerifyReport:
    """Outcome of one fuzzing campaign."""

    base_seed: int
    num_seeds: int
    results: list[ScenarioResult] = field(default_factory=list)
    shrunk: dict[int, ScenarioConfig] = field(default_factory=dict)  # seed -> minimal config
    elapsed_seconds: float = 0.0
    metrics: dict = field(default_factory=dict)
    blas: dict = field(default_factory=dict)  # :func:`blas_identity` of the run

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[ScenarioResult]:
        return [r for r in self.results if not r.ok]

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "base_seed": self.base_seed,
            "num_seeds": self.num_seeds,
            "ok": self.ok,
            "passed": sum(1 for r in self.results if r.ok),
            "failed": len(self.failures),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "blas": self.blas,
            "scenarios": [r.to_dict() for r in self.results],
            "failures": [
                {
                    "seed": r.config.seed,
                    "label": r.config.label,
                    "error": r.error,
                    "failed_checks": [c.to_dict() for c in r.failed_checks],
                    "shrunk_config": (
                        self.shrunk[r.config.seed].to_dict()
                        if r.config.seed in self.shrunk
                        else None
                    ),
                }
                for r in self.failures
            ],
            "metrics": self.metrics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary(self) -> str:
        """Short human-readable campaign summary for the CLI."""
        lines = []
        if self.blas:
            lines.append(
                f"blas: {self.blas['numpy_blas']}; kernel: {self.blas['kernel']}; "
                f"allocator: {self.blas['allocator']}"
            )
            lines += [
                f"  rows_matmul {shape}: {verdict}"
                for shape, verdict in self.blas["rows_matmul"].items()
            ]
        lines += [
            f"verify: {len(self.results)} scenarios "
            f"(seeds {self.base_seed}..{self.base_seed + self.num_seeds - 1}), "
            f"{sum(1 for r in self.results if r.ok)} passed, "
            f"{len(self.failures)} failed, {self.elapsed_seconds:.1f}s"
        ]
        for r in self.failures:
            lines.append(f"  FAIL {r.config.label}")
            if r.error:
                lines.append(f"       error: {r.error}")
            for check in r.failed_checks:
                lines.append(f"       {check.name}: {check.detail}")
            minimal = self.shrunk.get(r.config.seed)
            if minimal is not None:
                lines.append(f"       shrunk to: {minimal.label}")
                lines.append(
                    f"       replay: python -m repro.bench verify --replay {r.config.seed}"
                )
        return "\n".join(lines)


def run_verification(
    num_seeds: int,
    base_seed: int = 0,
    shrink: bool = True,
    voltage_factory=default_voltage_factory,
    max_shrink_attempts: int = 60,
    force_runtime: str | None = None,
    force_decode: bool = False,
    force_decode_attention: str | None = None,
) -> VerifyReport:
    """Fuzz ``num_seeds`` scenarios; shrink whatever fails.

    ``force_runtime`` pins every sampled scenario's ``runtime`` axis (e.g.
    ``"process"`` for a process-runtime conformance lane) instead of letting
    the seed draw it.  ``force_decode`` pins every scenario to a gpt2 decode
    scenario (1-4 token steps, derived from the seed) — the decode
    conformance lane.  ``force_decode_attention`` pins the decode attention
    mode (``"gathered"`` or ``"distributed"``) on every scenario that
    decodes; scenarios without decode steps are unaffected.
    """
    if num_seeds < 1:
        raise ValueError(f"need at least one seed, got {num_seeds}")
    registry = MetricsRegistry()
    report = VerifyReport(base_seed=base_seed, num_seeds=num_seeds)
    started = time.perf_counter()
    with use_registry(registry):
        for seed in range(base_seed, base_seed + num_seeds):
            config = sample_scenario(seed)
            if force_runtime is not None:
                config = config.replaced(runtime=force_runtime)
            if force_decode:
                config = config.replaced(
                    family="gpt2",
                    decode_steps=config.decode_steps or (seed % 4) + 1,
                )
            if force_decode_attention is not None and config.decode_steps:
                config = config.replaced(decode_attention=force_decode_attention)
            scenario_started = time.perf_counter()
            result = run_scenario(config, voltage_factory=voltage_factory)
            registry.histogram("verify.scenario_seconds").observe(
                time.perf_counter() - scenario_started
            )
            registry.counter("verify.scenarios_total").inc()
            for check in result.checks:
                registry.counter("verify.checks_total", check=check.name).inc()
                if not check.passed and not check.skipped:
                    registry.counter("verify.check_failures_total", check=check.name).inc()
            if result.error:
                registry.counter("verify.scenario_errors_total").inc()
            report.results.append(result)
            if not result.ok and shrink:
                minimal = shrink_config(
                    config,
                    fails=lambda c: not run_scenario(c, voltage_factory=voltage_factory).ok,
                    max_attempts=max_shrink_attempts,
                )
                report.shrunk[seed] = minimal
                registry.counter("verify.shrinks_total").inc()
    report.elapsed_seconds = time.perf_counter() - started
    report.metrics = registry.snapshot()
    report.blas = blas_identity()
    return report


def replay_seed(seed: int, voltage_factory=default_voltage_factory) -> ScenarioResult:
    """Deterministically re-run the scenario a report's seed names."""
    return run_scenario(sample_scenario(seed), voltage_factory=voltage_factory)
