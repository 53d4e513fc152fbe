"""Online inference engine: continuous batching, deadline shedding.

This package executes models under live request streams (built from
:mod:`repro.serving`'s arrival processes and reported through its
:class:`~repro.serving.stats.ServingStats`).  The pieces:

- :mod:`repro.engine.clock` — deterministic virtual time or wall time
  (one interface, so soak tests replay hours of traffic in ms);
- :mod:`repro.engine.slots` — a bounded pool of preallocated KV-cache
  slots (``LayerKVCache.truncate`` recycling, no steady-state allocation);
- :mod:`repro.engine.scheduler` — bounded admission queue in arrival
  order with explicit load shedding;
- :mod:`repro.engine.sequencer` — per-request execution state machines:
  *one* greedy decode machine (prefill, then commit → draft → verify →
  accept → roll back per step) whose forwards run against slot-owned
  caches (:class:`GPT2CachedSequencer`, bit-identical to the offline
  ``generate_cached``) or on ``K`` resident ranks
  (:class:`VoltageDecodeSequencer`); :mod:`repro.engine.speculative` adds the proposers that switch
  drafting on in that machine (:class:`SpeculativeSequencer`);
- :mod:`repro.engine.engine` — the worker loop tying them together, fully
  instrumented through :mod:`repro.obs`.

Quick start::

    from repro import engine
    from repro.serving.arrivals import poisson_arrivals

    seq = engine.GPT2CachedSequencer(model, max_new_tokens=8,
                                     step_cost=lambda t, n: 0.01 * t + 0.002)
    eng = engine.InferenceEngine(seq, engine.EngineConfig(num_slots=4))
    report = eng.run(poisson_arrivals(100, rate=5.0, n_tokens=16))
    print(report.stats().summary(), f"shed {report.shed_rate:.0%}")
"""

from repro.engine.clock import VirtualClock, WallClock
from repro.engine.engine import (
    CompletedRequest,
    EngineConfig,
    EngineReport,
    EngineStalledError,
    InferenceEngine,
)
from repro.engine.prefix_cache import PrefixCacheStats, PrefixEntry, RadixPrefixCache
from repro.engine.scheduler import Scheduler, ShedRequest
from repro.engine.sequencer import GPT2CachedSequencer, VoltageDecodeSequencer
from repro.engine.slots import KVSlot, SlotPool
from repro.engine.speculative import (
    DraftModelProposer,
    NgramProposer,
    SpeculativeSequencer,
    SpeculativeStats,
)
from repro.systems.decode import DecodeSession

__all__ = [
    "CompletedRequest",
    "DraftModelProposer",
    "EngineConfig",
    "EngineReport",
    "EngineStalledError",
    "DecodeSession",
    "GPT2CachedSequencer",
    "InferenceEngine",
    "KVSlot",
    "NgramProposer",
    "PrefixCacheStats",
    "PrefixEntry",
    "RadixPrefixCache",
    "Scheduler",
    "ShedRequest",
    "SlotPool",
    "SpeculativeSequencer",
    "SpeculativeStats",
    "VirtualClock",
    "VoltageDecodeSequencer",
    "WallClock",
]
