"""The router counts shard loads as it binds, releases and rebinds.

``QueryRouter.loads()`` used to recount every owned query on each routed
submission; now ``bind`` / ``release`` / ``rebind`` / ``restore`` keep a
per-shard count and ``loads()`` copies it.  The oracle is the recount,
``Counter(owners().values())``: equal after every call of a derandomized
hypothesis sequence, and after every step of a fleet churn with
rebalances and a capture / restore.
"""

import json
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
from repro.durability.snapshot import splice_json
from repro.durability.state import FragmentMemo, capture_fleet, restore_fleet
from repro.fleet import HashShardPolicy, QueryRouter
from repro.service import churn_trace

from tests.fleet.conftest import build_env, build_fleet

_SHARDS = 3


def recount(router):
    counts = Counter(router.owners().values())
    return [counts[shard] for shard in range(router.num_shards)]


_CALL = st.tuples(
    st.sampled_from(["bind", "bind", "release", "rebind", "restore"]),
    st.integers(0, 7),
    st.integers(0, _SHARDS - 1),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_CALL, max_size=50))
def test_loads_equal_a_recount_after_every_call(calls):
    router = QueryRouter(HashShardPolicy(), _SHARDS)
    for kind, serial, shard in calls:
        name = f"q{serial}"
        if kind == "bind":
            if router.owner(name) in (None, shard):
                router.bind(name, shard)
            else:
                with pytest.raises(repro.ReproError):
                    router.bind(name, shard)
        elif kind == "release":
            router.release(name)
        elif kind == "rebind":
            if router.owner(name) is None:
                with pytest.raises(repro.ReproError):
                    router.rebind(name, shard)
            else:
                router.rebind(name, shard)
        else:
            twin = QueryRouter(HashShardPolicy(), _SHARDS)
            twin.restore(json.loads(json.dumps(router.capture())))
            router = twin
        loads = router.loads()
        assert loads == recount(router)
        loads[0] += 1  # a copy: the caller cannot move the router's counts
        assert router.loads() == recount(router)


def test_a_fleet_churn_keeps_the_counts_through_rebalances_and_a_restore():
    env = build_env()
    fleet = build_fleet(env, num_shards=_SHARDS, budget=4)
    trace = churn_trace(env[2], lifetime=3.0, arrivals_per_tick=3, repeats=3)
    moved = 0
    for serial, event in enumerate(sorted(trace, key=lambda e: e.time)):
        while fleet.clock < event.time:
            fleet.tick()
            assert fleet.router.loads() == recount(fleet.router)
        fleet.submit(event.query, lifetime=event.lifetime)
        assert fleet.router.loads() == recount(fleet.router)
        live = sorted(fleet.live_queries)
        if serial % 4 == 3 and live:
            name = live[serial % len(live)]
            moved += fleet.rebalance(name, (fleet.shard_of(name) + 1) % _SHARDS).moved
            assert fleet.router.loads() == recount(fleet.router)
        if serial == len(trace) // 2:
            twin = build_fleet(build_env(), num_shards=_SHARDS, budget=4)
            restore_fleet(twin, json.loads(splice_json(capture_fleet(fleet, FragmentMemo()))))
            assert twin.router.loads() == fleet.router.loads()
            fleet = twin
    assert moved > 0 and sum(fleet.router.loads()) > 0
