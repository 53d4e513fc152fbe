"""Slot K/V sized to the traffic, one workspace per backend (INTERNALS §10).

A slot reserves its own request's capacity class — ``decode_capacity``
rounded up to a power of two, capped at ``max_positions`` — before anything
is written into it, and every flight of a slot-cache backend's pass shares
that backend's one scratch ``Workspace``.  Neither may change a token or a
K/V byte.
"""

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    GPT2CachedSequencer,
    InferenceEngine,
    KVSlot,
)
from repro.models import GPT2Model, tiny_config
from repro.serving.arrivals import Request
from repro.systems.decode import decode_capacity

from .conftest import constant_step_cost


@pytest.fixture(scope="module")
def long_gpt2():
    """A tiny decoder with GPT-2's 256-position budget, so a short
    request's class is far below ``max_positions``."""
    config = tiny_config(
        norm_style="pre", is_causal=True, type_vocab_size=0, num_layers=2, max_positions=256,
    )
    return GPT2Model(config, rng=np.random.default_rng(13))


def size_class(positions: int) -> int:
    return 1 << (positions - 1).bit_length()


class TestSlotSizing:
    @pytest.mark.parametrize("n, new, expected", [(10, 6, 16), (20, 6, 32), (17, 16, 64)])
    def test_short_request_reserves_its_class_not_max_positions(self, long_gpt2, n, new, expected):
        sequencer = GPT2CachedSequencer(long_gpt2, max_new_tokens=new)
        slot = KVSlot(0, long_gpt2.num_layers, long_gpt2.config.max_positions)
        prompt = np.arange(1, n + 1, dtype=np.int64)
        state = sequencer.begin(Request(0.0, n, id=0), prompt, slot)
        while not sequencer.step(state)[0]:
            pass
        assert size_class(decode_capacity(long_gpt2, n, new)) == expected
        for cache in slot.caches:
            assert cache.capacity == expected < long_gpt2.config.max_positions
        assert slot.allocations() == long_gpt2.num_layers  # reserved, then never grown
        np.testing.assert_array_equal(
            sequencer.result(state), long_gpt2.generate_cached(prompt, max_new_tokens=new)
        )

    def test_class_is_capped_at_the_slot_capacity(self):
        """On a fresh slot and when a larger class regrows a used one."""
        row = np.zeros((2, 1, 4), np.float32)
        fresh, used = KVSlot(0, 1, 48), KVSlot(1, 1, 48)
        fresh.reserve(40)
        fresh.caches[0].append(row, row)
        used.reserve(20)
        used.caches[0].append(row, row)
        assert used.caches[0].capacity == 32
        used.reserve(40)
        assert fresh.caches[0].capacity == used.caches[0].capacity == 48

    def test_engine_slots_hold_the_classes_of_what_they_served(self, long_gpt2):
        sequencer = GPT2CachedSequencer(long_gpt2, max_new_tokens=6, step_cost=constant_step_cost)
        engine = InferenceEngine(sequencer, EngineConfig(num_slots=2))
        requests = [Request(0.0, n, id=i) for i, n in enumerate((5, 9, 12, 30))]
        report = engine.run(requests)
        largest: dict[int, int] = {}
        for done in report.completed:
            need = decode_capacity(long_gpt2, done.request.n, 6)
            largest[done.slot_index] = max(largest.get(done.slot_index, 0), need)
            np.testing.assert_array_equal(
                done.output, sequencer.offline_reference(done.request)
            )
        per_position = long_gpt2.num_layers * 2 * long_gpt2.config.hidden_size * 4
        assert engine.pool.nbytes() == per_position * sum(
            size_class(need) for need in largest.values()
        )

    def test_prefix_seeded_slot_allocates_once(self, long_gpt2):
        """One live slot and one retained: the second request of a tenant
        lands on the fresh slot and is seeded from the first's rows.  The
        slot is reserved before the copy, so each of its layer caches
        allocates once — the copy does not size it to the prefix alone."""
        sequencer = GPT2CachedSequencer(
            long_gpt2, max_new_tokens=6, step_cost=constant_step_cost, shared_prefix_tokens=8,
        )
        engine = InferenceEngine(
            sequencer, EngineConfig(num_slots=1, prefix_cache=True, prefix_cache_slots=1)
        )
        requests = [Request(0.01 * i, 12, id=i, tenant="a") for i in range(2)]
        report = engine.run(requests)
        assert report.prefix_cache["hits"] == 1
        seeded = next(done for done in report.completed if done.prefix_reused)
        assert seeded.prefix_reused >= 8
        assert seeded.slot_index != report.completed[0].slot_index
        # two physical slots, each layer cache allocated exactly once
        assert engine.pool.allocations() == 2 * long_gpt2.num_layers
        for done in report.completed:
            np.testing.assert_array_equal(done.output, sequencer.offline_reference(done.request))


class TestSharedWorkspace:
    def test_mixed_pass_on_one_workspace_equals_lone_decodes(self, long_gpt2, monkeypatch):
        """A multi-row prefill flight and two single-row decode flights in
        one pass, all on the backend's one workspace: every output equals
        ``generate_cached`` and every slot's K/V bytes equal those of the
        same request decoded alone."""
        prompts = [np.arange(3, 9), np.arange(20, 33), np.arange(40, 51)]
        new = 5
        sequencer = GPT2CachedSequencer(long_gpt2, max_new_tokens=new)
        passes = []
        argmax_rows = long_gpt2.argmax_cached_rows

        def spy(rows, labels=None):
            passes.append([(len(row[0]), row[3]) for row in rows])
            return argmax_rows(rows, labels)

        monkeypatch.setattr(long_gpt2, "argmax_cached_rows", spy)
        slots = [KVSlot(i, long_gpt2.num_layers, 256) for i in range(3)]

        def begin(i):
            return sequencer.begin(Request(0.0, len(prompts[i]), id=i), prompts[i], slots[i])

        states = [begin(0), begin(1)]
        sequencer.stage(states)
        for state in states:  # the two prefills, packed
            sequencer.step(state)
        states.append(begin(2))
        while live := [state for state in states if not state.done]:
            sequencer.stage(live)
            for state in live:
                sequencer.step(state)
        mixed = passes[1]
        assert sorted(rows for rows, _ in mixed) == [1, 1, len(prompts[2])]
        assert {id(workspace) for rows in passes for _, workspace in rows} == {
            id(sequencer.backend.workspace)
        }
        assert sequencer.backend.workspace.allocations > 0

        for state, prompt in zip(states, prompts):
            np.testing.assert_array_equal(
                sequencer.result(state), long_gpt2.generate_cached(prompt, max_new_tokens=new)
            )
            lone = GPT2CachedSequencer(long_gpt2, max_new_tokens=new)
            slot = KVSlot(9, long_gpt2.num_layers, 256)
            alone = lone.begin(state.request, prompt, slot)
            while not lone.step(alone)[0]:
                pass
            for mine, theirs in zip(state.slot.caches, slot.caches):
                assert mine.length == theirs.length
                assert mine.k.tobytes() == theirs.k.tobytes()
                assert mine.v.tobytes() == theirs.v.tobytes()
