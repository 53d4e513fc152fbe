"""Differential conformance and fuzzing harness.

Voltage's central claim rests on three code paths agreeing: each
protocol's weight-free latency timeline called directly
(:func:`repro.systems.voltage.voltage_timeline`, ...), the host-emulated
execution with simulated latency (each system's ``run()``), and the real
threaded execution (``execute_distributed``).  This package cross-checks all
three over randomized scenarios::

    from repro import verify

    report = verify.run_verification(num_seeds=25)
    assert report.ok, report.summary()

    # replay one scenario from a report's seed
    result = verify.replay_seed(7)

    # minimise a failing config while preserving the failure
    minimal = verify.shrink_config(config, fails=lambda c: not verify.run_scenario(c).ok)

CLI equivalent: ``python -m repro.bench verify --seeds 25 [--json DIR]``.
"""

from repro.verify.report import VerifyReport, replay_seed, run_verification
from repro.verify.runner import (
    Check,
    ScenarioResult,
    default_voltage_factory,
    run_scenario,
)
from repro.verify.scenario import (
    ScenarioConfig,
    build_cluster,
    build_input,
    build_model,
    build_scheme,
    sample_scenario,
)
from repro.verify.shrink import config_cost, shrink_config
from repro.verify.tolerances import (
    ANALYTIC_REL_TOL,
    DECODE_CLOSENESS,
    OUTPUT_TOLERANCES,
    Tolerance,
    benign_argmax_tie,
    decode_closeness,
    decode_logits_close,
    max_abs_diff,
    output_tolerance,
    outputs_close,
)

__all__ = [
    "ANALYTIC_REL_TOL",
    "DECODE_CLOSENESS",
    "OUTPUT_TOLERANCES",
    "Check",
    "ScenarioConfig",
    "ScenarioResult",
    "Tolerance",
    "VerifyReport",
    "benign_argmax_tie",
    "build_cluster",
    "build_input",
    "build_model",
    "build_scheme",
    "config_cost",
    "decode_closeness",
    "decode_logits_close",
    "default_voltage_factory",
    "max_abs_diff",
    "output_tolerance",
    "outputs_close",
    "replay_seed",
    "run_scenario",
    "run_verification",
    "sample_scenario",
    "shrink_config",
]
