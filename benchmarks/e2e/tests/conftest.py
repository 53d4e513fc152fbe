"""Self-tests of the benchmark harness.  Run from the repository root with
``PYTHONPATH=src python -m pytest benchmarks/e2e/tests`` — outside tier-1's
``testpaths``, so the repo's own suite is unchanged."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parents[1]
for path in (BENCH_DIR, REPO_ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
