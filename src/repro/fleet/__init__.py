"""repro.fleet — multi-replica serving: routing, autoscaling, workload traces.

The single-engine story (:mod:`repro.engine`) ends at one replica's slot
pool.  This package scales it out in virtual time: a :class:`Fleet` runs
many engines on one global timeline, a :class:`~repro.fleet.router.Router`
spreads arrivals across them, an :class:`~repro.fleet.autoscaler.Autoscaler`
grows and shrinks the pool from the engines' own published gauges, and the
trace registry (:mod:`repro.fleet.traces`) supplies named, versioned,
seed-deterministic workloads to replay.  ``python -m repro.bench fleet``
sweeps router policies and demonstrates autoscaling end to end.
"""

from repro.fleet.autoscaler import Autoscaler, AutoscalerConfig, AutoscalerSample
from repro.fleet.fleet import REFERENCE_PROMPT_LEN, Fleet, FleetConfig, FleetReport, Replica
from repro.fleet.router import (
    ROUTER_POLICIES,
    LeastLoadedRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    Router,
    SessionAffinityRouter,
    make_router,
    replica_load,
)
from repro.fleet.tiers import (
    ReplicaTier,
    build_tier_model,
    make_tier_sequencer,
    standard_tiers,
)
from repro.fleet.traces import (
    Trace,
    TraceSpec,
    build_trace,
    get_trace_spec,
    register_trace,
    trace_names,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "AutoscalerSample",
    "Fleet",
    "FleetConfig",
    "FleetReport",
    "REFERENCE_PROMPT_LEN",
    "Replica",
    "ROUTER_POLICIES",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "PowerOfTwoRouter",
    "SessionAffinityRouter",
    "make_router",
    "replica_load",
    "ReplicaTier",
    "standard_tiers",
    "build_tier_model",
    "make_tier_sequencer",
    "Trace",
    "TraceSpec",
    "register_trace",
    "trace_names",
    "get_trace_spec",
    "build_trace",
]
