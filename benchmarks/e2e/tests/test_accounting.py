"""Failures and leaks are measured outcomes, and compare.py reads them right."""

import json
import socket
import threading

import numpy as np
import pytest

import compare
import harness
from lane_serve import ServeSaturatedLane, ServeSharedPrefixLane


def test_a_corrupted_reference_flips_failed_share_and_slo_met_share():
    lane = ServeSharedPrefixLane("canary", seed=0)
    lane.setup()
    lane.warm_up()
    lane.measure(0.4, None)
    lane.close()
    genuine = lane.model.generate_cached
    target = lane.sent[0].prompt

    def corrupted(prompt, max_new_tokens=8):
        output = genuine(prompt, max_new_tokens=max_new_tokens)
        if np.array_equal(prompt, target):
            output = output.copy()
            output[-1] = (output[-1] + 1) % lane.model.config.vocab_size
        return output

    lane.model.generate_cached = corrupted
    lane.check()
    assert lane.attempted == len(lane.sent) >= 8
    assert lane.failed == 1 and lane.failures
    assert lane.layer["tail.slo_met_share"] <= 1 - 1 / len(lane.sent) + 1e-9


def test_a_raised_batch_fails_each_of_its_requests_once():
    lane = ServeSaturatedLane("canary", seed=0)
    lane.setup()
    lane.warm_up()

    def broken(requests, prompts=None):
        raise RuntimeError("boom")

    lane.engines["plain"].run = broken
    lane.measure(0.2, None)
    lane.check()
    rounds = lane.info["rounds"]
    assert lane.attempted == 2 * rounds * len(lane.prompts)  # plain + speculative
    assert lane.failed == rounds * len(lane.prompts)  # the plain half, once each
    assert lane.failed <= lane.attempted


def test_leaks_names_threads_and_listening_sockets():
    assert harness.leaks() == []
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name="decode-session-test")
    thread.start()
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    try:
        found = harness.leaks()
        assert "thread:decode-session-test" in found
        assert any(name.startswith("listening-socket:") for name in found)
    finally:
        stop.set()
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()
    assert harness.leaks() == []


def test_the_run_refuses_when_numpy_was_imported_before_the_pins():
    with pytest.raises(harness.GuardError, match="NumPy was imported"):
        harness.pin_blas_threads()  # pytest imported NumPy long ago


def _set(tmp_path, name, values, failed=0):
    results = [
        {"workload": "serve-saturated", "trace": False, "failed": failed, "attempted": 10,
         "owned": ["itl_p50_s", "tokens_per_s"],
         "metrics": {"itl_p50_s": {"value": v, "unit": "s"},
                     "tokens_per_s": {"value": 1 / v, "unit": "tok/s"},
                     "ttft_p50_s": {"value": 600.0 * v, "unit": "s"}}}  # not owned: skipped
        for v in values
    ]
    path = tmp_path / name
    path.write_text(json.dumps({"results": results}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _set(tmp_path, "a.json", [1.00, 1.01, 0.99, 1.00])
    assert compare.main([base, _set(tmp_path, "b.json", [1.02, 1.01, 1.03, 1.02])]) == 0
    assert " ok" in capsys.readouterr().out
    assert compare.main([base, _set(tmp_path, "c.json", [1.5, 1.51, 1.49, 1.5])]) == 1
    out = capsys.readouterr().out
    assert out.count("regressed") == 2 and "ttft_p50_s" not in out  # both owned metrics
    assert compare.main([base, _set(tmp_path, "d.json", [0.8, 1.3, 0.9, 1.1])]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([base, _set(tmp_path, "e.json", [1.0, 1.0, 1.0, 1.0], failed=2)]) == 1
    out = capsys.readouterr().out  # failed_share regresses on any increase
    assert [line for line in out.splitlines() if "failed_share" in line][0].endswith("regressed")
    assert compare.main([base]) == 0
    assert "yes" in capsys.readouterr().out
