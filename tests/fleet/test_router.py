"""Router policy unit tests over a plain fake replica protocol."""

from dataclasses import dataclass

import pytest

from repro.fleet.router import (
    ROUTER_POLICIES,
    LeastLoadedRouter,
    PowerOfTwoRouter,
    RoundRobinRouter,
    SessionAffinityRouter,
    make_router,
    replica_load,
)
from repro.serving.arrivals import Request


@dataclass
class FakeReplica:
    index: int
    queue_depth: int = 0
    slots_in_use: int = 0

    @property
    def name(self) -> str:
        return f"r{self.index}"


def req(i: int = 0, tenant: str | None = None) -> Request:
    return Request(arrival=float(i), n=4, id=i, tenant=tenant)


def fakes(*loads: int) -> list[FakeReplica]:
    return [FakeReplica(index=i, queue_depth=load) for i, load in enumerate(loads)]


def test_make_router_covers_every_policy():
    for policy in ROUTER_POLICIES:
        assert make_router(policy).policy == policy
    with pytest.raises(ValueError, match="policy"):
        make_router("warm-random")


def test_every_policy_rejects_empty_fleet():
    for policy in ROUTER_POLICIES:
        with pytest.raises(ValueError, match="no live replicas"):
            make_router(policy).choose(req(), [])


def test_round_robin_cycles_in_order():
    router = RoundRobinRouter()
    replicas = fakes(0, 0, 0)
    picks = [router.choose(req(i), replicas).index for i in range(7)]
    assert picks == [0, 1, 2, 0, 1, 2, 0]


def test_least_loaded_picks_the_emptier_replica():
    router = LeastLoadedRouter()
    replicas = fakes(5, 1, 3)
    assert router.choose(req(), replicas).index == 1
    # a request in a slot counts as much as a queued one
    busy = FakeReplica(index=0, queue_depth=1, slots_in_use=2)
    queued = FakeReplica(index=1, queue_depth=2)
    assert (replica_load(busy), replica_load(queued)) == (3, 2)
    assert router.choose(req(), [busy, queued]) is queued


def test_least_loaded_breaks_ties_by_spawn_index():
    replicas = fakes(2, 2, 2)
    assert LeastLoadedRouter().choose(req(), replicas).index == 0


def test_power_of_two_never_picks_the_strictly_worse_sample():
    router = PowerOfTwoRouter(seed=7)
    replicas = fakes(0, 3, 1, 6, 2)
    for i in range(200):
        chosen = router.choose(req(i), replicas)
        pair = router.last_pair
        assert len(pair) == 2 and chosen in pair
        other = pair[0] if chosen is pair[1] else pair[1]
        assert replica_load(chosen) <= replica_load(other)


def test_power_of_two_is_seed_deterministic_and_collapses_to_one():
    replicas = fakes(0, 1, 2, 3)
    a = [PowerOfTwoRouter(seed=3).choose(req(i), replicas).index for i in range(50)]
    b = [PowerOfTwoRouter(seed=3).choose(req(i), replicas).index for i in range(50)]
    assert a == b
    solo = fakes(9)
    router = PowerOfTwoRouter(seed=0)
    assert router.choose(req(), solo) is solo[0]
    assert router.last_pair == (solo[0],)


def test_affinity_keeps_a_session_on_one_replica():
    router = SessionAffinityRouter()
    replicas = fakes(0, 0, 0, 0)
    picks = {router.choose(req(i, tenant="tenant-a"), replicas).index for i in range(20)}
    assert len(picks) == 1


def test_affinity_spreads_distinct_sessions():
    router = SessionAffinityRouter()
    replicas = fakes(*([0] * 8))
    picks = {router.choose(req(i, tenant=f"t{i}"), replicas).index for i in range(64)}
    assert len(picks) > 1  # rendezvous hashing uses the whole fleet


def test_affinity_membership_change_only_remaps_the_departed_replicas_sessions():
    router = SessionAffinityRouter()
    replicas = fakes(0, 0, 0, 0)
    tenants = [f"t{i}" for i in range(40)]
    before = {t: router.choose(req(0, tenant=t), replicas).index for t in tenants}
    survivors = [r for r in replicas if r.index != 2]
    after = {t: router.choose(req(0, tenant=t), survivors).index for t in tenants}
    for tenant in tenants:
        if before[tenant] != 2:
            assert after[tenant] == before[tenant]
        else:
            assert after[tenant] != 2
