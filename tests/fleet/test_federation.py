"""Cross-shard view reuse: federation, invalidation, promotion."""

import pytest

import repro
from repro.durability import DurabilityConfig, recover
from repro.fleet import FEDERATION_OWNER

from tests.fleet.conftest import ByNamePolicy, build_fleet
from tests.fleet.reference_federation import imports_of


def reuse_pair(fleet_env):
    """Two queries where the second can reuse the first's root view."""
    net, _, workload, _ = fleet_env
    q1 = workload.queries[0]
    q2 = q1.renamed("reuser", sink=(q1.sink + 5) % len(net.nodes()))
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
        fleet.submit(q2)  # shard 1 imports them to plan it
        deployment = next(
            d for d in fleet.shards[1].engine.state.deployments
            if d.query.name == q2.name
        )
        assert deployment.reused_leaves()
        assert fleet.cross_shard_reuse_total >= 1
        assert fleet.federation.active_imports >= 1

    def test_import_for_follows_the_imports_and_breaks_ties_by_filters(self, fleet_env):
        q1, q2 = reuse_pair(fleet_env)
        fleet = split_fleet(fleet_env, q1, q2)
        federation = fleet.federation
        fleet.submit(q1)
        fleet.tick()
        fleet.submit(q2)  # planning it imports q1's views into shard 1
        imported = imports_of(federation, 1)
        assert imported
        for sig, node in imported:
            assert federation.import_for(1, sig.sources, node) == (sig, node)
            assert federation.import_for(0, sig.sources, node) is None
        fleet.retire(q2.name)
        fleet.retire(q1.name)
        fleet.tick()  # nobody consumed them: withdrawn
        assert not imports_of(federation, 1)
        for sig, node in imported:
            assert federation.import_for(1, sig.sources, node) is None

        # Same streams at the same node, told apart by filters only: the
        # smallest (label, filters) key, whichever was imported first.
        plain = q1.view_signature()
        first, second = (
            repro.Query(
                "f", q1.sources, q1.sink, q1.predicates,
                [repro.Filter(q1.sources[0], text, 0.5)],
            ).view_signature()
            for text in ("x > 1", "x > 2")
        )
        for order in ([second, plain, first], [first, second, plain]):
            federation.restore_imports([set(), [(sig, 3) for sig in order]])
            assert federation.import_for(1, plain.sources, 3) == (plain, 3)
        federation.restore_imports([set(), [(second, 3), (first, 3)]])
        assert federation.import_for(1, plain.sources, 3) == (first, 3)
        assert federation.import_for(1, plain.sources, 4) is None

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
        fleet.submit(q2)
        # shard 1 imports shard 0's views but must not offer them back
        assert imports_of(fleet.federation, 1)
        for key in imports_of(fleet.federation, 1):
            assert key not in fleet.federation.exports(1)


class TestInvalidation:
    def test_owner_retirement_withdraws_imports(self, fleet_env):
        q1, q2 = reuse_pair(fleet_env)
        fleet = split_fleet(fleet_env, q1, q2)
        fleet.submit(q1)
        fleet.tick()
        fleet.submit(q2)  # imports q1's views into shard 1 ...
        fleet.retire(q2.name)  # ... which nothing there consumes any more
        imported = imports_of(fleet.federation, 1)
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
        decision = fleet.submit(q2.renamed("reuser2", sink=q2.sink))
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
        cost_before = fleet.shards[1].engine.state.query_cost(q2.name)
        fleet.retire(q1.name)  # q2 still consumes: promote, don't withdraw
        assert fleet.federation.promoted_total >= 1
        assert fleet.shards[1].is_live(q2.name)
        assert fleet.shards[1].engine.state.query_cost(q2.name) == cost_before
        for sig, node in consumed:
            # the record survives as a local operator of shard 1 ...
            assert fleet.shards[1].engine.state.has_view(sig, node)
            assert (sig, node) not in imports_of(fleet.federation, 1)
            # ... with no federation claim left on it
            consumers = fleet.shards[1].engine.state.queries_using(sig, node)
            assert FEDERATION_OWNER not in consumers

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


# ----------------------------------------------------------------------
# Exports are read from each shard's operator-set feed
# ----------------------------------------------------------------------
def scanned_exports(fleet, shard):
    """The scan ``exports`` used to be: every advertised view of the
    shard's state, minus what the federation planted there."""
    state = fleet.shards[shard].engine.state
    imports = imports_of(fleet.federation, shard)
    out = {}
    for sig, nodes in state.advertised_views().items():
        for node in nodes:
            if (sig, node) not in imports:
                out[(sig, node)] = state.view_rate(sig, node)
    return out


class TestExportsFromTheFeed:
    @pytest.mark.parametrize("every", [1, 5])
    def test_exports_match_the_full_scan_under_churn(self, fleet_env, every):
        _, _, workload, _ = fleet_env
        fleet = build_fleet(fleet_env, num_shards=3)
        pool = list(workload)
        step = 0

        def check():
            nonlocal step
            step += 1
            if step % every == 0:
                for shard in range(3):
                    assert fleet.federation.exports(shard) == scanned_exports(fleet, shard)

        for serial in range(60):
            base = pool[serial % len(pool)]
            fleet.submit(base.renamed(f"{base.name}#{serial}"), lifetime=2.0 + serial % 5)
            check()
            if serial % 3 == 0:
                fleet.tick()
                check()
            if serial % 7 == 0 and fleet.live_queries:
                name = sorted(fleet.live_queries)[0]
                fleet.rebalance(name, (fleet.shard_of(name) + 1) % 3)
                check()
        for _ in range(8):
            fleet.tick()
            check()
        summary = fleet.federation.summary()
        assert summary["imported_total"] and summary["withdrawn_total"]
        assert summary["promoted_total"]
        assert fleet.check_invariants() == []

    def test_restored_imports_stop_being_exports(self, fleet_env):
        q1, q2 = reuse_pair(fleet_env)
        fleet = split_fleet(fleet_env, q1, q2)
        fleet.submit(q1)
        fleet.tick()
        owned = fleet.federation.exports(0)
        assert owned
        fleet.federation.restore_imports([set(owned), imports_of(fleet.federation, 1)])
        assert fleet.federation.exports(0) == scanned_exports(fleet, 0) == {}


class TestRecoveredCache:
    def test_withdrawal_evicts_a_cached_plan_restored_by_recovery(
        self, fleet_env, tmp_path
    ):
        """The recovered plan cache is written through its one writer,
        so a restored entry is as evictable as one put there live."""
        q1, q2 = reuse_pair(fleet_env)
        state_dir = tmp_path / "state"

        def factory():
            return split_fleet(
                fleet_env,
                q1,
                q2,
                durability=DurabilityConfig(state_dir=str(state_dir), snapshot_interval=1),
            )

        live = factory()
        live.submit(q1)
        live.tick()
        live.submit(q2)  # caches a plan on shard 1 referencing the import
        live.retire(q2.name)
        live.tick()  # snapshot: the cached plan and the import are in it
        live.durability.journal.close()

        recovered, report = recover(state_dir, factory)
        try:
            assert report.snapshot_lsn > 0
            cache = recovered.shards[1].cache
            imported = imports_of(recovered.federation, 1)
            restored = [
                key
                for key, cached in cache._entries.items()
                if any(
                    (sig.sources, node) in cached.reused_views() for sig, node in imported
                )
            ]
            assert restored, "the snapshot must carry a plan reusing the import"
            invalidations = cache.invalidations
            recovered.retire(q1.name)  # import withdrawn -> restored plan evicted
            assert recovered.federation.active_imports == 0
            assert cache.invalidations == invalidations + len(restored)
            assert not any(key in cache for key in restored)
        finally:
            recovered.durability.journal.close()
