"""A failed rank releases its blocked peers at once, on both runtimes.

A rank that raises closes its transport endpoint; a peer blocked on it in a
receive then raises ``ConnectionError`` within one poll slice, and the
failure cascades rank by rank.  So ``run`` re-raises the failing rank's
error in about a second, although the receive timeout is 30 s, and leaves no
thread or process behind.
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.cluster.process_runtime import ProcessRuntime
from repro.cluster.runtime import DEFAULT_TIMEOUT, RuntimeError_, ThreadedRuntime


def _fail_before(op: str, failing: int):
    def worker(ctx):
        if ctx.rank == failing:
            raise ValueError(f"rank {failing} fails before {op}")
        if op == "all_gather":
            ctx.all_gather(np.full((2, 3), float(ctx.rank), dtype=np.float32))
        else:
            ctx.barrier()
        return ctx.rank

    return worker


@pytest.mark.parametrize("runtime", [ThreadedRuntime, ProcessRuntime])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("op", ["all_gather", "barrier"])
@pytest.mark.parametrize("failing", ["first", "last"])
def test_failed_rank_releases_blocked_peers(runtime, k, op, failing):
    failing_rank = 0 if failing == "first" else k - 1
    threads_before = {t.ident for t in threading.enumerate()}
    started = time.monotonic()
    with pytest.raises(RuntimeError_) as excinfo:
        runtime(k).run(_fail_before(op, failing_rank))
    elapsed = time.monotonic() - started
    assert DEFAULT_TIMEOUT == 30.0
    assert elapsed < 2.0
    assert excinfo.value.rank == failing_rank
    assert f"fails before {op}" in str(excinfo.value)
    assert {t.ident for t in threading.enumerate()} - threads_before == set()
    assert multiprocessing.active_children() == []
