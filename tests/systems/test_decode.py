"""Conformance tests for distributed decode (``repro.systems.decode``).

The acceptance matrix from ISSUE 7: distributed greedy decode must be
bit-identical to single-device ``generate_cached`` across device counts
{1, 2, 4}, wire dtypes {float32, float16, int8} and runtimes
{threaded, process}.  The wire-dtype axis is deliberately included even
though decode K/V rows always travel lossless: a system configured for
lossy *activation* encoding must not let that encoding leak into the
decode path.
"""

import threading
import time

import numpy as np
import pytest

from repro.cluster.process_runtime import ProcessRuntime
from repro.cluster.runtime import ThreadedRuntime
from repro.cluster.spec import ClusterSpec
from repro.systems import decode as decode_module
from repro.models.config import gpt2_config, tiny_config
from repro.models.gpt2 import GPT2Model
from repro.systems.decode import (
    DecodeSession,
    decode_capacity,
    decode_layer_spans,
    decode_stats_wire,
    decode_step_totals,
    generate_distributed,
    run_decode,
)
from repro.systems.voltage import VoltageSystem


@pytest.fixture(scope="module")
def gpt2():
    config = tiny_config(
        norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2
    )
    return GPT2Model(config, rng=np.random.default_rng(3))


@pytest.fixture(scope="module")
def prompt(gpt2):
    rng = np.random.default_rng(9)
    return rng.integers(0, gpt2.config.vocab_size, size=7).astype(np.int64)


def _system(gpt2, k, wire_dtype="float32"):
    speeds = [5.0, 3.0, 2.0, 1.0][:k]
    cluster = ClusterSpec.heterogeneous(speeds, bandwidth_mbps=100.0)
    return VoltageSystem(gpt2, cluster, wire_dtype=wire_dtype)


def assert_one_timeline(monkeypatch, gpt2, prompt, attention):
    """``run_decode`` prices its tokens with exactly one ``decode_timeline``
    call on its own config, shapes, cluster and settings, and a direct
    weight-free call with the same arguments returns equal phases."""
    calls = []
    real = decode_module.decode_timeline

    def spy(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(decode_module, "decode_timeline", spy)
    system = _system(gpt2, 3)
    result = run_decode(system, prompt, max_new_tokens=4, attention=attention)
    ((args, kwargs, out),) = calls
    assert result.latency is out[0]
    assert args == (gpt2.config, len(prompt), 4, system.cluster)
    capacity = decode_capacity(gpt2, len(prompt), 4)
    assert kwargs.pop("scheme").layer_parts(capacity, gpt2.config.num_layers) == (
        decode_layer_spans(system, capacity)
    )
    stats_itemsize = decode_stats_wire(system.wire_dtype)[1]
    assert kwargs == {"attention": attention, "stats_itemsize": stats_itemsize}
    modelled, _ = real(
        gpt2.config, len(prompt), 4, system.cluster,
        attention=attention, stats_itemsize=stats_itemsize,
    )
    assert result.latency.phases == modelled.phases
    return modelled


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("wire_dtype", ["float32", "float16", "int8"])
    def test_threaded_matches_generate_cached(self, gpt2, prompt, k, wire_dtype):
        reference = gpt2.generate_cached(prompt, max_new_tokens=5)
        system = _system(gpt2, k, wire_dtype)
        ids, _ = generate_distributed(system, prompt, max_new_tokens=5)
        np.testing.assert_array_equal(ids, reference)
        result = run_decode(system, prompt, max_new_tokens=5)
        np.testing.assert_array_equal(result.output, reference)

    @pytest.mark.parametrize("k", [2, 4])
    def test_process_matches_generate_cached(self, gpt2, prompt, k):
        reference = gpt2.generate_cached(prompt, max_new_tokens=3)
        system = _system(gpt2, k)
        ids, stats = generate_distributed(
            system, prompt, max_new_tokens=3, runtime="process"
        )
        np.testing.assert_array_equal(ids, reference)
        # decode traffic crossed real sockets
        assert sum(s.bytes_sent for s in stats) > 0

    def test_heterogeneous_auto_scheme(self, gpt2, prompt):
        cluster = ClusterSpec.heterogeneous([7.0, 1.0, 4.0], bandwidth_mbps=50.0)
        system = VoltageSystem(gpt2, cluster, scheme="auto")
        reference = gpt2.generate_cached(prompt, max_new_tokens=4)
        ids, _ = generate_distributed(system, prompt, max_new_tokens=4)
        np.testing.assert_array_equal(ids, reference)


class TestSessionDriven:
    """``generate_distributed`` is a :class:`DecodeSession` client: begin,
    the greedy loop over ``forward``, close."""

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    @pytest.mark.parametrize("attention", ["gathered", "distributed"])
    def test_bytes_sent_at_k2_are_the_one_shot_runs(self, gpt2, prompt, runtime, attention):
        """The ranks' summed ``CommStats.bytes_sent``, returned by the
        session's ``close``, equals what the one-shot SPMD run these ranks
        replaced sent (recorded at commit 8a2aac2) less that run's last
        step, whose token was discarded: one forward per kept token."""
        expected = {
            ("threaded", "gathered"): 23200, ("threaded", "distributed"): 7200,
            ("process", "gathered"): 26192, ("process", "distributed"): 9052,
        }[runtime, attention]
        ids, stats = generate_distributed(
            _system(gpt2, 2), prompt, max_new_tokens=5, runtime=runtime, attention=attention
        )
        np.testing.assert_array_equal(ids, gpt2.generate_cached(prompt, max_new_tokens=5))
        assert len(stats) == 2
        assert sum(s.bytes_sent for s in stats) == expected

    def test_the_only_runtime_run_is_the_sessions(self, gpt2, prompt, monkeypatch):
        callers = []
        real = ThreadedRuntime.run

        def spy(runtime, worker_fn):
            callers.append(threading.current_thread().name)
            return real(runtime, worker_fn)

        monkeypatch.setattr(ThreadedRuntime, "run", spy)
        generate_distributed(_system(gpt2, 2), prompt, max_new_tokens=2)
        assert callers == ["decode-session"]


def _failing_at_shutdown(runtime_class):
    """A ``runtime_class`` whose rank 1 raises after its worker returns —
    the session has already shut down cleanly, so no command fails."""

    class FailingAtShutdown(runtime_class):
        def run(self, worker_fn, **resident):
            def worker(ctx):
                result = worker_fn(ctx)
                if ctx.rank == 1:
                    raise ConnectionError("link dropped during shutdown")
                return result

            return super().run(worker, **resident)

    return FailingAtShutdown(2, timeout=10.0)


class TestSessionShutdownFailure:
    """An error that ends ``runtime.run`` after every command succeeded is
    raised by ``close``, chained, on both runtimes."""

    @pytest.mark.parametrize("runtime_class", [ThreadedRuntime, ProcessRuntime])
    def test_close_raises_the_error_that_ended_the_run(self, gpt2, prompt, runtime_class):
        session = DecodeSession(_system(gpt2, 2), runtime=_failing_at_shutdown(runtime_class))
        session.begin(0, decode_capacity(gpt2, len(prompt), 2))
        session.forward(0, list(prompt), 0)
        with pytest.raises(RuntimeError, match="decode session ranks failed") as raised:
            session.close()
        assert "link dropped during shutdown" in str(raised.value.__cause__)
        assert raised.value.__cause__.rank == 1

    @pytest.mark.parametrize("runtime_class", [ThreadedRuntime, ProcessRuntime])
    def test_generate_distributed_does_not_return_its_stats(self, gpt2, prompt, runtime_class):
        with pytest.raises(RuntimeError, match="link dropped during shutdown"):
            generate_distributed(
                _system(gpt2, 2), prompt, max_new_tokens=2,
                runtime=_failing_at_shutdown(runtime_class),
            )


def _outliving_shutdown(runtime_class, seconds):
    """A ``runtime_class`` whose ``run`` ends ``seconds`` after its ranks
    did, cleanly or not — a shutdown that outlives a session's short
    ``timeout``."""

    class OutlivingShutdown(runtime_class):
        def run(self, worker_fn, **resident):
            try:
                return super().run(worker_fn, **resident)
            finally:
                time.sleep(seconds)

    return OutlivingShutdown(2, timeout=10.0)


class TestSessionHungShutdown:
    """``close`` does not pass a run that has not ended within ``timeout``
    off as clean — unless a failed command already raised its own error."""

    @staticmethod
    def _session(gpt2, prompt, runtime_class):
        """A session begun with a generous reply wait, then cut to a short
        one: the commands stay unhurried, the shutdown outlives the wait."""
        session = DecodeSession(
            _system(gpt2, 2), runtime=_outliving_shutdown(runtime_class, 3.0), timeout=30.0
        )
        session.begin(0, decode_capacity(gpt2, len(prompt), 2))
        session.timeout = 1.0
        return session

    @pytest.mark.parametrize("runtime_class", [ThreadedRuntime, ProcessRuntime])
    def test_close_raises_naming_the_session(self, gpt2, prompt, runtime_class):
        session = self._session(gpt2, prompt, runtime_class)
        session.forward(0, list(prompt), 0)
        with pytest.raises(RuntimeError, match="'decode-session'.*did not shut down"):
            session.close()
        session._thread.join()  # let the run end before the next test

    @pytest.mark.parametrize("runtime_class", [ThreadedRuntime, ProcessRuntime])
    def test_a_failed_command_keeps_its_error(self, gpt2, prompt, runtime_class):
        session = self._session(gpt2, prompt, runtime_class)
        with pytest.raises(RuntimeError, match="rank 0 failed: KeyError"):
            session.forward(1, list(prompt), 0)  # slot 1 was never begun
        assert session.close() == []  # the failure was raised; close only reports
        session._thread.join()


class TestRunDecodeAccounting:
    def test_analytic_mirror_matches_phase_by_phase(self, gpt2, prompt, monkeypatch):
        assert_one_timeline(monkeypatch, gpt2, prompt, "gathered")

    def test_meta_structure(self, gpt2, prompt):
        system = _system(gpt2, 2)
        result = run_decode(system, prompt, max_new_tokens=4)
        meta = result.meta
        assert meta["system"] == "voltage-decode"
        assert meta["devices"] == 2
        assert meta["prompt_tokens"] == len(prompt)
        assert meta["tokens"] == len(prompt) + 4
        assert meta["steps"] == len(meta["per_token_seconds"])
        assert meta["cached_order"] == "eq3"
        assert len(meta["uncached_orders"]) == meta["steps"]
        # spans cover the capacity contiguously
        spans = meta["shard_spans"]
        assert spans[0][0] == 0 and spans[-1][1] == meta["capacity"]

    def test_single_device_has_no_gather_traffic(self, gpt2, prompt):
        system = _system(gpt2, 1)
        result = run_decode(system, prompt, max_new_tokens=3)
        assert result.meta["kv_gather_bytes_per_device"] == 0

    def test_gather_traffic_grows_with_devices(self, gpt2, prompt):
        by_k = {
            k: run_decode(_system(gpt2, k), prompt, max_new_tokens=3).meta[
                "kv_gather_bytes_per_device"
            ]
            for k in (2, 4)
        }
        assert by_k[4] > by_k[2] > 0


class TestDistributedAttention:
    """The ISSUE 8 matrix: local-shard attention + log-sum-exp combine must
    reproduce ``generate_cached`` token-for-token under greedy decode across
    device counts, wire dtypes and runtimes (the fixtures' logit gaps are
    far wider than the combine's re-association noise)."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("wire_dtype", ["float32", "float16", "int8"])
    def test_threaded_matches_generate_cached(self, gpt2, prompt, k, wire_dtype):
        reference = gpt2.generate_cached(prompt, max_new_tokens=5)
        system = _system(gpt2, k, wire_dtype)
        ids, _ = generate_distributed(
            system, prompt, max_new_tokens=5, attention="distributed"
        )
        np.testing.assert_array_equal(ids, reference)
        result = run_decode(system, prompt, max_new_tokens=5, attention="distributed")
        np.testing.assert_array_equal(result.output, reference)

    @pytest.mark.parametrize("k", [2, 4])
    def test_process_matches_generate_cached(self, gpt2, prompt, k):
        reference = gpt2.generate_cached(prompt, max_new_tokens=3)
        system = _system(gpt2, k)
        ids, stats = generate_distributed(
            system, prompt, max_new_tokens=3, runtime="process",
            attention="distributed",
        )
        np.testing.assert_array_equal(ids, reference)
        assert sum(s.bytes_sent for s in stats) > 0

    def test_rejects_unknown_mode(self, gpt2, prompt):
        system = _system(gpt2, 2)
        with pytest.raises(ValueError, match="attention"):
            run_decode(system, prompt, max_new_tokens=2, attention="ring")

    def test_final_logits_within_closeness(self, gpt2, prompt):
        from repro.verify.tolerances import decode_logits_close

        system = _system(gpt2, 4, "float16")
        result = run_decode(system, prompt, max_new_tokens=4, attention="distributed")
        prefix = result.meta["final_logits_prefix"]
        assert prefix == len(result.output) - 1  # the step that produced the last token
        reference = gpt2.forward(result.output[:prefix])
        assert decode_logits_close(result.meta["final_logits"], reference, "float16")


class TestDistributedAttentionEdgeCases:
    """Degenerate geometries, vs ``generate_cached``, on both runtimes."""

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_prompt_length_one(self, gpt2, runtime):
        prompt = np.asarray([11], dtype=np.int64)
        reference = gpt2.generate_cached(prompt, max_new_tokens=4)
        ids, _ = generate_distributed(
            _system(gpt2, 2), prompt, max_new_tokens=4, runtime=runtime,
            attention="distributed",
        )
        np.testing.assert_array_equal(ids, reference)

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_prompt_ends_on_span_boundary(self, gpt2, runtime):
        # K=2 even spans over capacity 10: the 5-token prompt exactly fills
        # rank 0's span, so rank 1 starts empty and fills from step 1 on
        prompt = np.arange(5, dtype=np.int64) % gpt2.config.vocab_size
        system = VoltageSystem(gpt2, ClusterSpec.homogeneous(2))
        spans = decode_layer_spans(system, 10)
        assert spans[0][0].stop == 5, "fixture must split exactly at the prompt"
        reference = gpt2.generate_cached(prompt, max_new_tokens=5)
        ids, _ = generate_distributed(
            system, prompt, max_new_tokens=5, runtime=runtime,
            attention="distributed",
        )
        np.testing.assert_array_equal(ids, reference)

    @pytest.mark.parametrize("max_new_tokens", [0, 1])
    def test_tiny_generations(self, gpt2, prompt, max_new_tokens):
        reference = gpt2.generate_cached(prompt, max_new_tokens=max_new_tokens)
        ids, _ = generate_distributed(
            _system(gpt2, 3), prompt, max_new_tokens=max_new_tokens,
            attention="distributed",
        )
        np.testing.assert_array_equal(ids, reference)
        result = run_decode(
            _system(gpt2, 3), prompt, max_new_tokens=max_new_tokens,
            attention="distributed",
        )
        np.testing.assert_array_equal(result.output, reference)

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_rank_with_empty_span_at_step_zero(self, gpt2, runtime):
        # prompt 3 over K=4 even spans of capacity 8 (span length 2): ranks
        # 2 and 3 hold nothing at the prefill step and must emit neutral
        # stats rather than skewing the combine
        prompt = np.asarray([2, 5, 8], dtype=np.int64)
        system = VoltageSystem(gpt2, ClusterSpec.homogeneous(4))
        spans = decode_layer_spans(system, 8)
        assert all(part.start >= 3 for part in spans[0][2:])
        reference = gpt2.generate_cached(prompt, max_new_tokens=5)
        ids, _ = generate_distributed(
            system, prompt, max_new_tokens=5, runtime=runtime,
            attention="distributed",
        )
        np.testing.assert_array_equal(ids, reference)


class TestDistributedAttentionAccounting:
    def test_per_step_bytes_flat_vs_growing(self, gpt2, prompt):
        gathered = run_decode(_system(gpt2, 2), prompt, max_new_tokens=5)
        distributed = run_decode(
            _system(gpt2, 2), prompt, max_new_tokens=5, attention="distributed"
        )
        g_steps = gathered.meta["per_step_comm_bytes_per_device"][1:]
        d_steps = distributed.meta["per_step_comm_bytes_per_device"][1:]
        assert len(set(d_steps)) == 1, "combine traffic must be flat in t"
        assert g_steps == sorted(g_steps) and g_steps[-1] > g_steps[0]

    def test_combine_bytes_exact(self, gpt2, prompt):
        from repro.core.complexity import decode_combine_elements

        system = _system(gpt2, 3)
        result = run_decode(system, prompt, max_new_tokens=4, attention="distributed")
        config = gpt2.config
        spans = decode_layer_spans(system, decode_capacity(gpt2, len(prompt), 4))
        totals = decode_step_totals(len(prompt), 4, config.max_positions)
        expected = stats_steps = 0
        for step, total in enumerate(totals):
            added = len(prompt) if step == 0 else 1
            if decode_module.decode_step_slices(config, spans, total - added, added) is not None:
                continue  # a partitioned step gathers K/V, not stats
            stats_steps += 1
            per_rank = decode_combine_elements(
                config.num_heads, config.head_dim, 1, new_positions=added
            )
            expected += config.num_layers * 2 * per_rank * 4  # (K-1)=2, float32
        assert stats_steps == len(totals) - 1  # the 7-row prefill splits 4 | 3 | 0
        assert result.meta["combine_bytes_per_device"] == expected
        assert result.meta["kv_gather_bytes_per_device"] == (
            result.meta["per_step_comm_bytes_per_device"][0]
        )
        assert result.meta["decode_attention"] == "distributed"

    def test_analytic_mirror_matches_phase_by_phase(self, gpt2, prompt, monkeypatch):
        modelled = assert_one_timeline(monkeypatch, gpt2, prompt, "distributed")
        assert any(p.name == "combine stats all-gather" for p in modelled.phases)

    def test_single_device_has_no_combine_traffic(self, gpt2, prompt):
        result = run_decode(
            _system(gpt2, 1), prompt, max_new_tokens=3, attention="distributed"
        )
        assert result.meta["combine_bytes_per_device"] == 0


class TestWireBytesAtGpt2Width:
    """Exact per-device wire bytes of a K = 2 decode at GPT-2 width, 2 layers.

    Shapes only — no weights: ``run_decode``'s meta sums the lists the one
    ``decode_timeline`` returns (``assert_one_timeline``), and these values
    were recorded from ``run_decode`` at commit ad2b87d, less the last step
    whose token was discarded then (one step per kept token).  Any drift
    is a shard-geometry, head-sharding, stats-packing or greedy-loop
    change.
    """

    def wire_bytes(self, prompt_len, new_tokens, attention):
        config = gpt2_config().scaled(num_layers=2)
        _, steps = decode_module.decode_timeline(
            config, prompt_len, new_tokens, ClusterSpec.homogeneous(2), attention=attention
        )
        return steps["per_step_comm_bytes"], steps["per_step_head_bytes"]

    def test_short_prompt_gathered_totals(self):
        layer_bytes, head_bytes = self.wire_bytes(8, 8, "gathered")
        assert sum(layer_bytes) == 344064  # kv_gather_bytes_per_device
        assert sum(head_bytes) == 3200  # head_bytes_per_device

    def test_long_context_per_step_profiles(self):
        gathered, gathered_head = self.wire_bytes(96, 6, "gathered")
        combine, combine_head = self.wire_bytes(96, 6, "distributed")
        assert gathered == [552960, 565248, 577536, 589824, 602112, 614400]
        # the 96-row prefill is span-partitioned in either mode: the same K/V
        # gather (was a 608256-byte stats gather), then flat stats steps
        assert combine == [552960] + [6336] * 5
        assert sum(combine) == 584640  # kv_gather 552960 + combine 31680
        assert sum(combine_head) == sum(gathered_head) == 3168  # was 96: + the (1, F) row

    def test_short_prompt_distributed_prefill_moves_no_layer_bytes(self):
        # the 8-token prompt sits inside rank 0's span: rank 0 runs every row
        layer_bytes, head_bytes = self.wire_bytes(8, 8, "distributed")
        assert layer_bytes == [0] + [6336] * 7
        assert sum(head_bytes) == 3200


class TestStepTotals:
    def test_plain_run(self):
        # mirrors generate_cached: one forward per kept token — the prefill
        # and the steps after the first two appends, none after the last
        assert decode_step_totals(7, 3, 64) == [7, 8, 9]

    def test_zero_new_tokens(self):
        assert decode_step_totals(7, 0, 64) == []

    def test_cap_skips_final_step(self):
        # prompt 6, cap 8: append to 7 (step), append to 8 (>= cap, no step)
        assert decode_step_totals(6, 4, 8) == [6, 7]

    def test_prompt_at_cap(self):
        assert decode_step_totals(8, 4, 8) == []


class TestSpans:
    def test_capacity_caps_at_max_positions(self, gpt2):
        capacity = decode_capacity(gpt2, 60, 10)
        assert capacity == gpt2.config.max_positions

    def test_layer_spans_partition_capacity(self, gpt2):
        system = _system(gpt2, 3)
        spans = decode_layer_spans(system, 10)
        assert len(spans) == gpt2.num_layers
        for parts in spans:
            cursor = 0
            for part in parts:
                assert part.start == cursor
                cursor = part.stop
            assert cursor == 10

    def test_rejects_empty_prompt(self, gpt2):
        with pytest.raises(ValueError, match="at least one"):
            decode_capacity(gpt2, 0, 4)
