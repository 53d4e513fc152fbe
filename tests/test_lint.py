"""Lint gates: ruff over the codebase when it is available, and the package
layering rule.

The ruff check is configured by ``[tool.ruff]`` in pyproject.toml and
skipped in environments where ruff is not installed, so the test suite
itself carries no extra dependency.
"""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_check_src_and_tests():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"ruff violations:\n{proc.stdout}{proc.stderr}"


#: Lower layers: what models, partitions, runs and prices a deployment.
LOWER_PACKAGES = ("systems", "core", "cluster", "models")
#: Upper layers that drive them — serving, multi-replica routing, reporting.
UPPER_PACKAGES = ("repro.engine", "repro.fleet", "repro.bench")


def _imports_of(packages, forbidden) -> list[str]:
    """``path:line imports module`` for every import under ``packages`` (of
    ``src/repro``) whose module starts with one of ``forbidden``."""
    offenders = []
    for package in packages:
        for path in sorted((REPO_ROOT / "src" / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(REPO_ROOT)}:{node.lineno} imports {module}"
                    for module in modules
                    if module.startswith(forbidden)
                ]
    return offenders


def test_lower_layers_do_not_import_engine_fleet_or_bench():
    """``DecodeSession`` and the timeline functions live in ``repro.systems``
    so the engine and the figure sweeps can both build on them; the arrow
    must never point back (function-level imports count too)."""
    offenders = _imports_of(LOWER_PACKAGES, UPPER_PACKAGES)
    assert not offenders, "layering violations:\n" + "\n".join(offenders)


def test_serving_does_not_import_bench():
    """Request streams and their statistics sit below the engine, the fleet
    and the reporting layer that all read them."""
    offenders = _imports_of(("serving",), ("repro.bench",))
    assert not offenders, "layering violations:\n" + "\n".join(offenders)


def test_obs_imports_nothing_above_it():
    """Everything records into ``repro.obs``, so it sits below every layer
    that reports: the table helper its summaries share lives in
    ``repro.obs.table`` (``repro.bench`` re-imports it), not the other way
    round."""
    offenders = _imports_of(("obs",), UPPER_PACKAGES)
    assert not offenders, "layering violations:\n" + "\n".join(offenders)


def test_engine_takes_no_argmax_of_head_logits():
    """A greedy token reaches ``repro.engine`` from
    ``GPT2Model.argmax_cached_rows`` — the argmax-only head
    (``models/gpt2.py``), whose screen is what lets B rows share one pass
    over the tied table — never from ``np.argmax`` over logits the engine
    asked for: that would put the ``(B, vocab)`` GEMV head back on the
    serving path without failing a single output check."""
    offenders = [
        f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
        for path in sorted((REPO_ROOT / "src" / "repro" / "engine").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "argmax")
        or (isinstance(node, ast.Name) and node.id == "argmax")
    ]
    assert not offenders, "argmax taken inside repro.engine:\n" + "\n".join(offenders)


def test_ctypes_is_imported_only_under_repro_tensor():
    """Foreign calls take raw pointers: the one place that makes them
    (``repro/tensor/blas.py``, the rows_matmul kernel) validates dtype, shape
    and strides first and keeps every buffer referenced while native code
    runs.  Nothing else in ``src/repro`` may import ``ctypes``."""
    offenders = [
        line for line in _imports_of(("",), ("ctypes",))  # "" = all of src/repro
        if not line.startswith("src/repro/tensor/")
    ]
    assert not offenders, "ctypes outside repro/tensor:\n" + "\n".join(offenders)
