"""Smoke tests: every shipped example must run end-to-end.

Examples are documentation that executes; these tests keep them honest.
Each example's ``main()`` is invoked in-process (argv patched where the
example takes flags, sized down where the default would be slow for CI).
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = frozenset(path.stem for path in EXAMPLES_DIR.glob("*.py"))


@pytest.fixture(autouse=True)
def _examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES_DIR))
    yield
    # ensure fresh module state per test (examples are scripts, not packages)
    for name in EXAMPLES & set(sys.modules):
        del sys.modules[name]


def _run(name: str, argv: list[str], capsys) -> str:
    module = importlib.import_module(name)
    sys_argv = sys.argv
    sys.argv = [name] + argv
    try:
        module.main()
    finally:
        sys.argv = sys_argv
    return capsys.readouterr().out


class TestExamplesRun:
    def test_quickstart(self, capsys):
        out = _run("quickstart", [], capsys)
        assert "voltage" in out and "single-device" in out

    def test_text_classification(self, capsys):
        out = _run("text_classification_bert", ["--layers", "1", "--devices", "2"], capsys)
        assert "prediction" in out and "Voltage, K=6" in out

    def test_image_classification(self, capsys):
        out = _run("image_classification_vit", [], capsys)
        assert "makespan-optimal planning saves" in out

    def test_generation(self, capsys):
        out = _run("distributed_generation_gpt2", [], capsys)
        assert "distributed and local generation agree" in out

    def test_cluster_simulation(self, capsys):
        out = _run("edge_cluster_simulation", ["--bandwidth", "300"], capsys)
        assert "minimum bandwidth" in out and "tensor-par" in out

    def test_resilience(self, capsys):
        out = _run("resilient_inference", [], capsys)
        assert "survivors" in out and "oracle" in out

    def test_every_example_has_a_test(self):
        sources = [
            inspect.getsource(getattr(self, name)) for name in dir(self) if name.startswith("test_")
        ]
        assert EXAMPLES
        for stem in EXAMPLES:
            assert any(f'_run("{stem}"' in source for source in sources), stem
