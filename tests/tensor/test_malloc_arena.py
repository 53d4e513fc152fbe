"""The process's malloc policy: one glibc arena (INTERNALS §9, "One malloc
arena").

Importing :mod:`repro.tensor` holds glibc's malloc to one arena, so what a
rank or reference thread frees goes back to the heap every thread reuses.
On another libc, or when glibc refuses the cap, nothing changes and the
reason is reported, never raised.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro import obs
from repro.tensor import workspace
from repro.tensor.workspace import malloc_policy

ONE_ARENA, _ = workspace._single_arena()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc is a Linux libc")
def test_the_policy_is_applied_on_glibc():
    import platform

    libc, version = platform.libc_ver()
    if libc != "glibc":
        pytest.skip(f"libc is {libc or 'unknown'}, not glibc")
    assert malloc_policy() == f"glibc {version}: one arena"


class TestWithoutTheCap:
    def test_a_libc_without_mallopt_gives_a_reason(self, monkeypatch):
        monkeypatch.setattr(workspace, "_libc", lambda: object())
        applied, reason = workspace._single_arena.__wrapped__()
        assert not applied and reason.startswith("not glibc")

    def test_a_glibc_that_refuses_the_cap_gives_a_reason(self, monkeypatch):
        class Refusing:
            @staticmethod
            def mallopt(param, value):
                return 0

            gnu_get_libc_version = None

        monkeypatch.setattr(workspace, "_libc", Refusing)
        assert workspace._single_arena.__wrapped__() == (False, "mallopt(M_ARENA_MAX, 1) refused")

    def test_the_reason_is_reported_once_and_never_raised(self, monkeypatch):
        monkeypatch.setattr(workspace, "_single_arena", lambda: (False, "patched away"))
        registry, tracer = obs.MetricsRegistry(), obs.Tracer()
        with obs.use_registry(registry), obs.use_tracer(tracer):
            assert [malloc_policy() for _ in range(3)] == ["patched away"] * 3
        assert registry.counter("tensor.malloc_arena_disabled", reason="patched away").value == 1
        assert [span.args["reason"] for span in tracer.spans] == ["patched away"]


@pytest.mark.skipif(not ONE_ARENA, reason="the policy does not apply on this libc")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc VmHWM")
def test_rank_and_reference_threads_share_one_heap():
    """The ``decode-long`` lane's pattern at a small GPT-2-width decoder (F =
    768, 2 layers, 2 000-token vocabulary), in a fresh process: build, free
    and build again (the free raises glibc's dynamic mmap threshold past
    the layer matrices, so every rank buffer then comes from malloc's
    heaps); one 128-token prompt through a threaded K = 2 gathered decode
    session, closed; then two ``generate_cached`` at once on two threads.
    The peak over the RSS after the second build (``VmHWM`` − ``VmRSS``)
    reads 13.4–14.1 MiB with one arena, ≈ 33 MiB with an arena per
    thread — the rank threads' and the reference threads' private heaps
    stay resident after their work ends.  The 19 MiB bound leaves
    ≥ 4.9 MiB of margin; the arena-per-thread excess is ≈ 14 MiB over it,
    more than twice that margin."""
    script = textwrap.dedent("""
        import re, sys, threading
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        from repro.cluster.spec import ClusterSpec
        from repro.models.config import gpt2_config
        from repro.models.gpt2 import GPT2Model
        from repro.systems.decode import generate_distributed
        from repro.systems.voltage import VoltageSystem

        def kib(field):
            status = open("/proc/self/status").read()
            return int(re.search(field + r":\\s+(\\d+) kB", status).group(1))

        config = gpt2_config().scaled(num_layers=2, vocab_size=2000, max_positions=256)
        model = GPT2Model(config, rng=np.random.default_rng(0))
        del model
        model = GPT2Model(config, rng=np.random.default_rng(0))
        built = kib("VmRSS")
        rng = np.random.default_rng(1)
        prompts = [rng.integers(0, config.vocab_size, 128) for _ in range(2)]
        generate_distributed(VoltageSystem(model, ClusterSpec.homogeneous(2)), prompts[0], 4)
        threads = [
            threading.Thread(target=model.generate_cached, args=(prompt, 4)) for prompt in prompts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        print(kib("VmHWM") - built)
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", script, os.path.dirname(os.path.dirname(repro.__file__))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    excess_mib = int(done.stdout) / 1024
    assert excess_mib < 19, f"peak {excess_mib:.1f} MiB over the built model's RSS"
