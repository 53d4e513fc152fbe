"""Benchmark harness: regenerates every table and figure of the evaluation.

- :mod:`repro.bench.workloads` — the paper's workloads (models + inputs);
- :mod:`repro.bench.analytic` — weight-free latency models: adapters over
  the systems' own timeline functions;
- :mod:`repro.bench.figures` — one runner per figure/table + ablations;
- :mod:`repro.bench.harness` — series containers, timing, table printing;
- :mod:`repro.bench.cli` — the ``voltage-bench`` command / ``python -m
  repro.bench``.
"""

from repro.bench.figures import (
    ablation_comm_precision,
    ablation_dynamic_schemes,
    ablation_heterogeneous,
    ablation_order_choice,
    comm_volume_table,
    figure4,
    figure5,
    figure6,
    headline_summary,
    memory_tradeoff_table,
)
from repro.bench.harness import FigureResult, Series, time_callable
from repro.bench.workloads import Workload, paper_workloads

__all__ = [
    "FigureResult",
    "ablation_comm_precision",
    "ablation_dynamic_schemes",
    "Series",
    "Workload",
    "ablation_heterogeneous",
    "ablation_order_choice",
    "comm_volume_table",
    "figure4",
    "figure5",
    "figure6",
    "headline_summary",
    "memory_tradeoff_table",
    "paper_workloads",
    "time_callable",
]
