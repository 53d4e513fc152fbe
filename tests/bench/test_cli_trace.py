"""Acceptance test: `voltage-bench --trace out.json` emits a valid Chrome trace."""

import json

import pytest

from repro.bench.cli import main
from repro.obs.export import DOMAIN_PIDS


class TestCliTrace:
    def test_fig4_trace_is_valid_chrome_trace_event_file(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["fig4", "--devices", "2", "--trace", str(out)]) == 0
        assert f"-> {out}" in capsys.readouterr().out
        doc = json.loads(out.read_text())

        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert complete, "a fig4 run must emit spans"
        assert {e["ph"] for e in events} == {"X", "M"}

        for event in complete:
            for field in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
                assert field in event
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0 and event["dur"] >= 0
        # modeled phases land in the "model" process
        phase_pids = {e["pid"] for e in complete if e["cat"] == "phase"}
        assert phase_pids == {DOMAIN_PIDS["model"]}
        # processes and threads are labelled for Perfetto
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}

    def test_trace_flag_off_writes_nothing(self, tmp_path, capsys):
        assert main(["comm"]) == 0
        assert "trace:" not in capsys.readouterr().out

    def test_verify_target_is_traced(self, tmp_path, capsys):
        """verify / serve / fleet run inside the same trace scope as the
        figure targets."""
        out = tmp_path / "verify.json"
        assert main(["verify", "--seeds", "1", "--trace", str(out)]) == 0
        assert f"-> {out}" in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "a verify run must emit spans"
        for event in complete:
            for field in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
                assert field in event

    @pytest.mark.parametrize("target", ["fig4", "verify", "serve", "fleet"])
    def test_directory_trace_path_rejected(self, tmp_path, capsys, target):
        with pytest.raises(SystemExit) as exc:
            main([target, "--trace", str(tmp_path)])
        assert exc.value.code == 2
        assert "--trace requires an output file path" in capsys.readouterr().err
