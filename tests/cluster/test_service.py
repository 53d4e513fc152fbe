"""Rank services: resident ranks fed commands, and one-command runs, on
both runtimes.

Every command runs on every rank, so collectives inside it line up; replies
come back in rank order; a rank keeps the state its command table holds
between commands; the first failed or unanswered command breaks a resident
service for good.  Shutdown failures are tested through the decode session,
the resident service's client (``tests/systems/test_decode.py``).
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster import process_runtime
from repro.cluster.service import RankService, serve_once
from repro.cluster.spec import ClusterSpec
from repro.models.config import tiny_config
from repro.models.gpt2 import GPT2Model, greedy_loop
from repro.systems.decode import DecodeSession, decode_capacity
from repro.systems.voltage import VoltageSystem

RUNTIMES = ["threaded", "process"]


def counting(ctx):
    """A rank that sums what it is sent, and gathers its running total."""
    total = [0]

    def add(value):
        total[0] += value * (ctx.rank + 1)
        return total[0]

    def gather():
        return ctx.all_gather(np.array([total[0]], dtype=np.int64)).tolist()

    def fail():
        if ctx.rank == 1:
            raise ValueError("rank 1 lost its state")

    def nap(seconds):
        if ctx.rank == 1:
            time.sleep(seconds)

    def hang():
        if ctx.rank == 1:
            threading.Event().wait()

    return {"add": add, "gather": gather, "fail": fail, "nap": nap, "hang": hang}


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_every_rank_runs_every_command_and_keeps_its_state(runtime):
    with RankService(counting, 3, runtime=runtime, timeout=30.0) as service:
        assert service.call("add", 1) == [1, 2, 3]
        assert service.call("add", 10) == [11, 22, 33]
        assert service.call("gather") == [[11, 22, 33]] * 3
    stats = service.close()
    assert len(stats) == 3 and all(s.collective_calls == 1 for s in stats)
    assert service.close() is stats  # later calls only report


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_serve_once_is_one_command_then_closed(runtime):
    replies, stats = serve_once(counting, 3, runtime, "add", 2)
    assert replies == [2, 4, 6]
    assert len(stats) == 3 and all(s.collective_calls == 0 for s in stats)
    replies, stats = serve_once(counting, 2, runtime, "gather")
    assert replies == [[0, 0], [0, 0]] and all(s.collective_calls == 1 for s in stats)


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_the_first_failed_command_breaks_the_service(runtime):
    service = RankService(counting, 2, runtime=runtime, timeout=10.0)
    assert service.call("add", 1) == [1, 2]
    with pytest.raises(RuntimeError, match="rank 1 failed: ValueError: rank 1 lost") as first:
        service.call("fail")
    began = time.perf_counter()
    with pytest.raises(RuntimeError, match="broken by an earlier failure") as later:
        service.call("add", 1)
    assert time.perf_counter() - began < 1.0 and later.value.__cause__ is first.value
    assert service.close() == []  # the failure was raised; close only reports
    assert not service._thread.is_alive()


@pytest.mark.parametrize("runtime", RUNTIMES)
def test_an_unanswered_command_breaks_the_service(runtime):
    service = RankService(counting, 2, runtime=runtime, timeout=0.5)
    with pytest.raises(RuntimeError, match="rank 1 did not reply to 'nap' within 0.5s"):
        service.call("nap", 1.5)
    with pytest.raises(RuntimeError, match="broken"):
        service.call("add", 1)
    assert service.close() == []
    service._thread.join(timeout=10.0)  # the nap ends, then the shutdown it queued behind
    assert not service._thread.is_alive()


def test_a_service_that_never_started_has_no_stats():
    service = RankService(counting, 2)
    assert service.close() == []
    with pytest.raises(RuntimeError, match="rank service is closed"):
        service.call("add", 1)


class TestResidentLiveness:
    """A resident rank writes to its process's result pipe only at shutdown,
    so pipe silence says nothing about its health: ``call``'s per-reply wait
    judges it, whether the service is idle or busy, however long it lives."""

    TIMEOUT = 1.0
    GRACE = 0.5

    @pytest.fixture(autouse=True)
    def _short_grace(self, monkeypatch):
        monkeypatch.setattr(process_runtime, "_COLLECT_GRACE", self.GRACE)

    def test_an_idle_spell_past_the_bound_is_not_a_hang(self):
        with RankService(counting, 2, runtime="process", timeout=self.TIMEOUT) as service:
            assert service.call("add", 1) == [1, 2]
            time.sleep(self.TIMEOUT + self.GRACE + 1.0)
            assert service.call("add", 1) == [2, 4]

    def test_a_busy_service_outlives_the_bound(self):
        with RankService(counting, 2, runtime="process", timeout=self.TIMEOUT) as service:
            began, calls = time.monotonic(), 0
            while time.monotonic() - began < 2 * (self.TIMEOUT + self.GRACE):
                calls += 1
                assert service.call("add", 1) == [calls, 2 * calls]
                time.sleep(0.1)

    def test_a_rank_that_hangs_still_raises_within_the_bound(self):
        service = RankService(counting, 2, runtime="process", timeout=self.TIMEOUT)
        assert service.call("add", 1) == [1, 2]
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 1 did not reply to 'hang'"):
            service.call("hang")
        assert time.monotonic() - began < self.TIMEOUT + self.GRACE
        assert service.close() == []
        service._thread.join(timeout=self.TIMEOUT + self.GRACE + 5.0)
        assert not service._thread.is_alive()  # the hung rank was reaped


@pytest.mark.slow
def test_a_process_decode_session_outlives_the_bound():
    """Steps paced over more than ``timeout`` + grace of the session's life
    still emit exactly ``generate_cached``'s tokens."""
    config = tiny_config(norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2)
    model = GPT2Model(config, rng=np.random.default_rng(3))
    prompt = np.random.default_rng(0).integers(0, config.vocab_size, size=6)
    new_tokens, timeout = 16, 2.0
    system = VoltageSystem(model, ClusterSpec.homogeneous(2))

    def paced_forward(new_ids, offset):
        time.sleep(0.5)
        return session.forward(0, new_ids, offset)

    began = time.monotonic()
    with DecodeSession(system, runtime="process", timeout=timeout) as session:
        session.begin(0, decode_capacity(model, len(prompt), new_tokens))
        ids = greedy_loop(
            paced_forward, [int(t) for t in prompt], new_tokens, config.max_positions
        )
    assert time.monotonic() - began > timeout + process_runtime._COLLECT_GRACE
    assert ids == list(model.generate_cached(prompt, new_tokens))
