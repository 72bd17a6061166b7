"""FleetController lifecycle: ticks, retire, rebalance, metrics."""

import pytest

import repro
from repro.errors import UnknownQueryError
from repro.service import AdmissionStatus, churn_trace

from tests.fleet.conftest import ByNamePolicy, build_fleet


class TestLifecycle:
    def test_replay_drains_everything(self, fleet_env):
        fleet = build_fleet(fleet_env, num_shards=3, budget=4)
        _, _, workload, _ = fleet_env
        trace = churn_trace(workload, lifetime=3.0, arrivals_per_tick=2, repeats=2)
        report = fleet.replay(trace)
        s = report.summary
        assert s["submitted"] == 2 * len(workload)
        assert s["rejected"] == 0
        assert s["deployed_total"] == s["retired_total"] == s["submitted"]
        assert s["final_live"] == 0
        assert s["cache_hits"] > 0  # second round reuses shard caches
        assert fleet.check_invariants() == []

    def test_shard_queueing_and_tick_drain(self, fleet_env):
        fleet = build_fleet(fleet_env, num_shards=1, budget=2)
        _, _, workload, _ = fleet_env
        decisions = [
            fleet.submit(q, lifetime=2.0) for q in workload.queries[:4]
        ]
        statuses = [d.status for d in decisions]
        assert statuses[:2] == [AdmissionStatus.ADMITTED] * 2
        assert statuses[2:] == [AdmissionStatus.QUEUED] * 2
        report = fleet.tick(time=2.0)
        assert len(report.retired) == 2
        assert len(report.deployed) == 2
        assert fleet.check_invariants() == []

    def test_retire_unknown_raises(self, fleet_env):
        fleet = build_fleet(fleet_env)
        with pytest.raises(UnknownQueryError):
            fleet.retire("ghost")

    def test_retire_fleet_queued_returns_false(self, fleet_env):
        fleet = build_fleet(
            fleet_env, num_shards=1, budget=1,
            tenants=[repro.Tenant("t")],
        )
        _, _, workload, _ = fleet_env
        fleet.submit(workload.queries[0].renamed("a"), tenant="t")
        queued = fleet.submit(workload.queries[1].renamed("b"), tenant="t")
        assert queued.status is AdmissionStatus.QUEUED
        assert fleet.retire("b") is False
        assert fleet.router.owner("b") is None
        assert fleet.check_invariants() == []

    def test_fleet_metrics_present(self, fleet_env):
        fleet = build_fleet(fleet_env, num_shards=2)
        _, _, workload, _ = fleet_env
        fleet.submit(workload.queries[0])
        fleet.tick()
        names = fleet.registry.names()
        for name in (
            "fleet_live_queries",
            "fleet_queue_depth",
            "fleet_submitted_total",
            "fleet_admitted_total",
            "fleet_rejected_total",
            "fleet_rebalances_total",
            "fleet_cross_shard_reuse_total",
            "fleet_federation_imports",
        ):
            assert name in names
        assert fleet.registry.get("fleet_live_queries").value == 1.0

    def test_shard_epochs_track_shared_models(self, fleet_env):
        """A shared rate-model bump invalidates every shard's cache."""
        fleet = build_fleet(fleet_env, num_shards=2)
        _, _, workload, rates = fleet_env
        for query in workload.queries[:4]:
            fleet.submit(query)
        doubled = {
            name: repro.StreamSpec(name, spec.source, spec.rate * 2.0)
            for name, spec in fleet.rates.streams.items()
        }
        fleet.rates.update_streams(doubled)
        fleet.tick()
        assert all(s.statistics_epoch == 1 for s in fleet.shards)
        # restore: fleet_env is module-scoped
        halved = {
            name: repro.StreamSpec(name, spec.source, spec.rate / 2.0)
            for name, spec in fleet.rates.streams.items()
        }
        fleet.rates.update_streams(halved)


class TestLayers:
    def test_a_fleet_refuses_the_resource_layer(self, fleet_env):
        with pytest.raises(repro.ReproError, match="a fleet does not arm the resource layer"):
            build_fleet(fleet_env, service_kwargs={"resources": repro.ResourceConfig()})


class TestRebalance:
    def test_moves_live_query(self, fleet_env):
        _, _, workload, _ = fleet_env
        query = workload.queries[0]
        fleet = build_fleet(
            fleet_env, num_shards=2, policy=ByNamePolicy({}, default=0)
        )
        fleet.submit(query, lifetime=50.0)
        assert fleet.shard_of(query.name) == 0
        report = fleet.rebalance(query.name, 1)
        assert report.moved
        assert fleet.shard_of(query.name) == 1
        assert fleet.shards[1].is_live(query.name)
        assert not fleet.shards[0].is_live(query.name)
        assert fleet.rebalances_total == 1
        assert fleet.check_invariants() == []
        # the cutover was priced through the migration machinery
        assert report.cutover_completed >= fleet.clock
        assert report.cost_after > 0

    def test_same_shard_is_noop(self, fleet_env):
        fleet = build_fleet(fleet_env, num_shards=2, policy=ByNamePolicy({}, 0))
        _, _, workload, _ = fleet_env
        fleet.submit(workload.queries[0])
        report = fleet.rebalance(workload.queries[0].name, 0)
        assert not report.moved
        assert "already" in report.reason

    def test_full_target_refused_without_losing_the_query(self, fleet_env):
        fleet = build_fleet(
            fleet_env, num_shards=2, budget=1, policy=ByNamePolicy({}, 0)
        )
        _, _, workload, _ = fleet_env
        fleet.submit(workload.queries[0].renamed("a"))
        # fill shard 1
        fleet.router.bind("filler", 1)
        fleet.shards[1].submit(workload.queries[1].renamed("filler"))
        report = fleet.rebalance("a", 1)
        assert not report.moved
        assert "budget" in report.reason
        assert fleet.shards[0].is_live("a")
        assert fleet.check_invariants() == []

    def test_unknown_query_raises(self, fleet_env):
        fleet = build_fleet(fleet_env, num_shards=2)
        with pytest.raises(UnknownQueryError):
            fleet.rebalance("ghost", 1)

    def test_bad_shard_raises(self, fleet_env):
        fleet = build_fleet(fleet_env, num_shards=2)
        _, _, workload, _ = fleet_env
        fleet.submit(workload.queries[0])
        with pytest.raises(repro.ReproError):
            fleet.rebalance(workload.queries[0].name, 7)

    def test_rebalance_preserves_total_cost_reporting(self, fleet_env):
        fleet = build_fleet(fleet_env, num_shards=2, policy=ByNamePolicy({}, 0))
        _, _, workload, _ = fleet_env
        fleet.submit(workload.queries[0])
        before = fleet.total_cost()
        report = fleet.rebalance(workload.queries[0].name, 1)
        assert report.moved
        assert report.cost_before == before
        # same planner, same shared models: the replanned deployment on
        # the target shard prices identically
        assert fleet.total_cost() == pytest.approx(before)
