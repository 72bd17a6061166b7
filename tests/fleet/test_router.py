"""Router invariants: single ownership, locality, hash determinism."""

import pytest

import repro
from repro.fleet import HashShardPolicy, QueryRouter, SubtreeLocalityPolicy, make_policy
from repro.service import churn_trace

from tests.fleet.conftest import build_fleet


class TestHashPolicy:
    def test_deterministic_and_name_insensitive(self, fleet_env):
        _, _, workload, _ = fleet_env
        policy = HashShardPolicy()
        for query in workload.queries:
            shard = policy.assign(query, 4, [0, 0, 0, 0])
            assert shard == policy.assign(query, 4, [0, 0, 0, 0])
            # the fingerprint is name-insensitive: a resubmission under a
            # new name hashes to the same shard and hits its plan cache
            assert shard == policy.assign(query.renamed("other"), 4, [0, 0, 0, 0])

    def test_in_range(self, fleet_env):
        _, _, workload, _ = fleet_env
        policy = HashShardPolicy()
        for n in (1, 2, 3, 5):
            for query in workload.queries:
                assert 0 <= policy.assign(query, n, [0] * n) < n


class TestSubtreeLocality:
    def test_same_subtree_queries_colocate(self, fleet_env):
        net, hierarchy, workload, rates = fleet_env
        policy = SubtreeLocalityPolicy(hierarchy, rates)
        shard_of = {
            q.name: policy.assign(q, 4, [0, 0, 0, 0]) for q in workload.queries
        }
        for a in workload.queries:
            for b in workload.queries:
                if policy.locality_key(a) == policy.locality_key(b):
                    assert shard_of[a.name] == shard_of[b.name]

    def test_locality_key_covers_all_sources(self, fleet_env):
        net, hierarchy, workload, rates = fleet_env
        policy = SubtreeLocalityPolicy(hierarchy, rates)
        for query in workload.queries:
            level, coordinator = policy.locality_key(query)
            cluster = hierarchy.cluster_of(coordinator, level)
            nodes = {rates.source(s) for s in query.sources}
            assert nodes <= cluster.subtree_nodes()

    def test_fleet_colocates_live_queries(self, fleet_env):
        fleet = build_fleet(fleet_env, num_shards=4, policy="subtree", budget=16)
        _, hierarchy, workload, rates = fleet_env
        for query in workload.queries:
            fleet.submit(query)
        policy = fleet.router.policy
        owners = fleet.router.owners()
        for a in workload.queries:
            for b in workload.queries:
                if policy.locality_key(a) == policy.locality_key(b):
                    assert owners[a.name] == owners[b.name]


class TestMakePolicy:
    def test_resolves_names(self, fleet_env):
        _, hierarchy, _, rates = fleet_env
        assert make_policy("hash").name == "hash"
        assert make_policy("subtree", hierarchy, rates).name == "subtree"

    def test_unknown_policy_rejected(self):
        with pytest.raises(repro.ReproError):
            make_policy("nope")

    def test_subtree_needs_context(self):
        with pytest.raises(repro.ReproError):
            make_policy("subtree")


class TestOwnershipInvariant:
    def test_every_live_query_owned_by_exactly_one_shard(self, fleet_env):
        fleet = build_fleet(fleet_env, num_shards=3, budget=3)
        _, _, workload, _ = fleet_env
        trace = churn_trace(workload, lifetime=4.0, arrivals_per_tick=3, repeats=2)
        clock = 0.0
        for event in sorted(trace, key=lambda e: e.time):
            while clock < event.time:
                clock += 1.0
                fleet.tick(clock)
                assert fleet.check_invariants() == []
            fleet.submit(event.query, lifetime=event.lifetime)
            live_sets = [set(s.live_queries) for s in fleet.shards]
            for i in range(len(live_sets)):
                for j in range(i + 1, len(live_sets)):
                    assert not (live_sets[i] & live_sets[j])
            for sid, names in enumerate(live_sets):
                for name in names:
                    assert fleet.router.owner(name) == sid
        assert fleet.check_invariants() == []

    def test_duplicate_name_routes_to_owner_and_rejects(self, fleet_env):
        fleet = build_fleet(fleet_env, num_shards=3)
        _, _, workload, _ = fleet_env
        query = workload.queries[0]
        first = fleet.submit(query)
        assert first.admitted
        dup = fleet.submit(query)
        assert dup.rejected
        assert "already deployed" in dup.decision.reason
        assert dup.shard == first.shard

    def test_release_on_retire(self, fleet_env):
        fleet = build_fleet(fleet_env)
        _, _, workload, _ = fleet_env
        query = workload.queries[0]
        fleet.submit(query)
        assert fleet.router.owner(query.name) is not None
        assert fleet.retire(query.name) is True
        assert fleet.router.owner(query.name) is None
        assert fleet.check_invariants() == []

    def test_router_rejects_double_bind(self):
        router = QueryRouter(HashShardPolicy(), 2)
        router.bind("q", 0)
        with pytest.raises(repro.ReproError):
            router.bind("q", 1)
