"""Cross-shard view reuse: federation, invalidation, promotion."""

import repro
from repro.fleet import FEDERATION_OWNER

from tests.fleet.conftest import ByNamePolicy, build_fleet, renamed


def reuse_pair(fleet_env):
    """Two queries where the second can reuse the first's root view."""
    net, _, workload, _ = fleet_env
    q1 = workload.queries[0]
    q2 = renamed(q1, "reuser", sink=(q1.sink + 5) % len(net.nodes()))
    return q1, q2


def split_fleet(fleet_env, q1, q2, **kwargs):
    """Two shards with q1 pinned to shard 0 and q2 to shard 1."""
    return build_fleet(
        fleet_env,
        num_shards=2,
        policy=ByNamePolicy({q1.name: 0, q2.name: 1}),
        **kwargs,
    )


class TestCrossShardReuse:
    def test_view_deployed_by_shard_a_reused_by_shard_b(self, fleet_env):
        q1, q2 = reuse_pair(fleet_env)
        fleet = split_fleet(fleet_env, q1, q2)
        fleet.submit(q1)
        fleet.tick()  # sync publishes shard 0's views fleet-wide
        fleet.submit(q2)
        deployment = next(
            d for d in fleet.shards[1].engine.state.deployments
            if d.query.name == q2.name
        )
        assert deployment.reused_leaves()
        assert fleet.cross_shard_reuse_total >= 1
        assert fleet.federation.active_imports >= 1

    def test_reuse_cost_parity_with_single_service(self, fleet_env):
        net, hierarchy, _, rates = fleet_env
        q1, q2 = reuse_pair(fleet_env)

        ads = repro.AdvertisementIndex(hierarchy)
        single = repro.StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates, ads=ads),
            net, rates, hierarchy=hierarchy, ads=ads,
        )
        single.submit(q1)
        base = single.total_cost()
        single.submit(q2)
        single_marginal = single.total_cost() - base

        fleet = split_fleet(fleet_env, q1, q2)
        fleet.submit(q1)
        fleet_base = fleet.total_cost()
        fleet.tick()
        fleet.submit(q2)
        fleet_marginal = fleet.total_cost() - fleet_base

        assert fleet_marginal == single_marginal

    def test_no_federation_means_no_cross_shard_reuse(self, fleet_env):
        q1, q2 = reuse_pair(fleet_env)
        fleet = split_fleet(fleet_env, q1, q2, federation=False)
        fleet.submit(q1)
        fleet.tick()
        fleet.submit(q2)
        deployment = next(
            d for d in fleet.shards[1].engine.state.deployments
            if d.query.name == q2.name
        )
        assert not deployment.reused_leaves()
        assert fleet.cross_shard_reuse_total == 0

    def test_imports_are_not_reexported(self, fleet_env):
        q1, q2 = reuse_pair(fleet_env)
        fleet = split_fleet(fleet_env, q1, q2)
        fleet.submit(q1)
        fleet.tick()
        # shard 1 imports shard 0's views but must not offer them back
        for key in fleet.federation.imports(1):
            assert key not in fleet.federation.exports(1)


class TestInvalidation:
    def test_owner_retirement_withdraws_imports(self, fleet_env):
        q1, q2 = reuse_pair(fleet_env)
        fleet = split_fleet(fleet_env, q1, q2)
        fleet.submit(q1)
        fleet.tick()
        imported = fleet.federation.imports(1)
        assert imported
        epoch = fleet.federation.epoch
        fleet.retire(q1.name)  # owner gone, nobody consuming: withdraw
        assert fleet.federation.active_imports == 0
        assert fleet.federation.epoch > epoch
        for sig, node in imported:
            assert node not in fleet.shards[1].ads.view_nodes(sig)
            assert not fleet.shards[1].engine.state.has_view(sig, node)

    def test_withdrawal_evicts_referencing_cached_plans(self, fleet_env):
        q1, q2 = reuse_pair(fleet_env)
        fleet = split_fleet(fleet_env, q1, q2)
        fleet.submit(q1)
        fleet.tick()
        fleet.submit(q2)  # caches a plan on shard 1 referencing the import
        fleet.retire(q2.name)
        invalidations = fleet.shards[1].cache.invalidations
        fleet.retire(q1.name)  # import withdrawn -> cached plan evicted
        assert fleet.shards[1].cache.invalidations > invalidations
        # a resubmission replans cleanly without the remote view
        decision = fleet.submit(renamed(q2, "reuser2", sink=q2.sink))
        assert decision.admitted

    def test_promotion_keeps_consumed_views_alive(self, fleet_env):
        q1, q2 = reuse_pair(fleet_env)
        fleet = split_fleet(fleet_env, q1, q2)
        fleet.submit(q1)
        fleet.tick()
        fleet.submit(q2)
        deployment = next(
            d for d in fleet.shards[1].engine.state.deployments
            if d.query.name == q2.name
        )
        consumed = [
            fleet.federation.import_for(1, leaf.view, deployment.placement[leaf])
            for leaf in deployment.reused_leaves()
        ]
        consumed = [key for key in consumed if key is not None]
        assert consumed
        # The planted record is the exporter's operator: same install origin.
        origins = [fleet.shards[0].engine.state.view_origin(*key) for key in consumed]
        assert all(origin is not None and origin[0] is q1 for origin in origins)
        cost_before = fleet.shards[1].engine.state.query_cost(q2.name)
        fleet.retire(q1.name)  # q2 still consumes: promote, don't withdraw
        assert fleet.federation.promoted_total >= 1
        assert fleet.shards[1].is_live(q2.name)
        assert fleet.shards[1].engine.state.query_cost(q2.name) == cost_before
        for sig, node in consumed:
            # the record survives as a local operator of shard 1 ...
            assert fleet.shards[1].engine.state.has_view(sig, node)
            assert not fleet.federation.is_import(1, sig, node)
            # ... with no federation claim left on it
            consumers = fleet.shards[1].engine.state.queries_using(sig, node)
            assert FEDERATION_OWNER not in consumers
        # ... and still knows what it computes (the ledger prices it from this)
        assert [
            fleet.shards[1].engine.state.view_origin(*key) for key in consumed
        ] == origins

    def test_promoted_view_is_reexported(self, fleet_env):
        q1, q2 = reuse_pair(fleet_env)
        fleet = split_fleet(fleet_env, q1, q2)
        fleet.submit(q1)
        fleet.tick()
        fleet.submit(q2)
        deployment = next(
            d for d in fleet.shards[1].engine.state.deployments
            if d.query.name == q2.name
        )
        consumed = [
            fleet.federation.import_for(1, leaf.view, deployment.placement[leaf])
            for leaf in deployment.reused_leaves()
        ]
        consumed = [key for key in consumed if key is not None]
        fleet.retire(q1.name)
        fleet.tick()
        exports = fleet.federation.exports(1)
        assert any(key in exports for key in consumed)
