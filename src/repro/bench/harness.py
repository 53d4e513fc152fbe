"""Benchmark harness primitives: series containers, timing, table printing,
and the report file plumbing of the ``serve`` / ``fleet`` gates.

Every figure/table runner in :mod:`repro.bench.figures` returns a
:class:`FigureResult` so the pytest benchmarks, the CLI and EXPERIMENTS.md
all consume one representation.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from collections.abc import Callable
from pathlib import Path

from repro.obs.table import format_aligned

__all__ = [
    "Series",
    "FigureResult",
    "time_callable",
    "format_aligned",
    "BaselineError",
    "emit_report",
    "load_baseline",
    "check_baseline",
]


@dataclass
class Series:
    """One labelled curve: ordered (x, y) pairs."""

    label: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((float(x), float(y)))

    @property
    def xs(self) -> list[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> list[float]:
        return [p[1] for p in self.points]

    def y_at(self, x: float, rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> float:
        """The y value at ``x``, matching x within a float tolerance.

        Exact ``px == x`` comparison silently missed points whose x was
        reconstructed through arithmetic (e.g. a bandwidth parsed back from
        JSON, or ``0.1 + 0.2``-style sweep grids).
        """
        for px, py in self.points:
            if math.isclose(px, x, rel_tol=rel_tol, abs_tol=abs_tol):
                return py
        raise KeyError(f"series {self.label!r} has no point at x={x}")


@dataclass
class FigureResult:
    """A reproduced figure/table: labelled series over a shared x-axis."""

    name: str
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series labelled {label!r} in {self.name}")

    def format_table(self, precision: int = 4) -> str:
        """Render the series as an aligned text table (x down, series across)."""
        xs = sorted({x for s in self.series for x in s.xs})
        header = [self.xlabel] + [s.label for s in self.series]
        rows = []
        for x in xs:
            row = [f"{x:g}"]
            for s in self.series:
                try:
                    row.append(f"{s.y_at(x):.{precision}f}")
                except KeyError:
                    row.append("-")
            rows.append(row)
        lines = [f"== {self.name}: {self.title} ({self.ylabel}) =="]
        lines.append(format_aligned([header] + rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "title": self.title,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "series": {s.label: s.points for s in self.series},
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def time_callable(
    fn: Callable[[], object], repeats: int = 5, number: int = 3, warmup: int = 1
) -> float:
    """Best-of-``repeats`` mean time of ``number`` calls to ``fn`` (seconds).

    Min-of-repeats filters scheduler noise — standard micro-benchmark
    practice and what Fig. 6's speed-up ratios need for stability.
    """
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


# -- versioned report files (BENCH_serve.json / BENCH_fleet.json) -------------


def emit_report(payload: dict, mode: str, path: Path, schema: str) -> dict:
    """Write/merge one mode's payload into the ``schema`` report at ``path``
    (a file of another schema, or not JSON, is replaced)."""
    doc = {"schema": schema, "modes": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = None
        if isinstance(existing, dict) and existing.get("schema") == schema:
            doc = existing
            doc.setdefault("modes", {})
    doc["modes"][mode] = payload
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


class BaselineError(ValueError):
    """The committed baseline cannot be gated against (its message is the
    gate's one failure line)."""


def load_baseline(path: Path, mode: str, schema: str) -> dict:
    """One mode's payload from the ``schema`` report at ``path``; raises
    :class:`BaselineError` when the file, its schema or the mode is missing."""
    if not path.exists():
        raise BaselineError(f"baseline {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline {path} is not valid JSON: {exc}") from None
    if doc.get("schema") != schema:
        raise BaselineError(f"baseline schema {doc.get('schema')!r} != {schema!r}")
    base = doc.get("modes", {}).get(mode)
    if base is None:
        raise BaselineError(f"baseline {path} has no {mode!r} mode entry")
    return base


#: How many differing JSON paths :func:`check_baseline` names.
_SHOWN_DIFFS = 5


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _diff(now, base, where: str, out: list[str]) -> None:
    """Append one line per differing leaf of two JSON values, document order."""
    if isinstance(now, dict) and isinstance(base, dict):
        for key in [*base, *(k for k in now if k not in base)]:
            at = f"{where}.{key}"
            if key not in now:
                out.append(f"{at}: missing (baseline {_short(base[key])})")
            elif key not in base:
                out.append(f"{at}: {_short(now[key])} is not in the baseline")
            else:
                _diff(now[key], base[key], at, out)
    elif isinstance(now, list) and isinstance(base, list):
        if len(now) != len(base):
            out.append(f"{where}: {len(now)} items != baseline {len(base)}")
        else:
            for i, (a, b) in enumerate(zip(now, base)):
                _diff(a, b, f"{where}[{i}]", out)
    elif now != base:
        out.append(f"{where}: {_short(now)} != baseline {_short(base)}")


def check_baseline(payload: dict, mode: str, path: Path, schema: str) -> list[str]:
    """Compare one mode's payload with the ``schema`` baseline at ``path``;
    [] when they are equal as JSON, otherwise one line per differing path
    (the first few) — or the :class:`BaselineError` that made the baseline
    unusable."""
    try:
        base = load_baseline(path, mode, schema)
    except BaselineError as exc:
        return [str(exc)]
    diffs: list[str] = []
    _diff(json.loads(json.dumps(payload)), base, f"modes.{mode}", diffs)
    shown = diffs[:_SHOWN_DIFFS]
    if len(diffs) > len(shown):
        shown.append(f"... and {len(diffs) - len(shown)} more differing paths")
    return shown
