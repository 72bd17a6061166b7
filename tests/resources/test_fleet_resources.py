"""Fleet-level resource accounting: one shared ledger, tenant counts
under drift repair, and the fleet-wide resource summary."""

import json
import shutil

import pytest

import repro
from repro.fleet import FleetController, Tenant
from repro.resources import ResourceConfig, uniform_capacities
from tests.resources.reference_ledger import ratios


def build_fleet(resources, tenants=None, seed=47, num_queries=8, budget=16, **layers):
    net = repro.transit_stub_by_size(32, seed=seed)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(
            num_streams=6, num_queries=num_queries, joins_per_query=(1, 3)
        ),
        seed=seed + 1,
    )
    fleet = FleetController(
        2,
        net,
        workload.rate_model(),
        hierarchy,
        policy="hash",
        budget=budget,
        tenants=tenants,
        resources=resources,
        **layers,
    )
    return fleet, workload, net


def bounded(net, **overrides):
    return ResourceConfig(
        capacities=uniform_capacities(
            net, cpu=600.0, memory=400.0, bandwidth=800.0
        ),
        **overrides,
    )


class TestSharedLedger:
    def test_shards_share_one_ledger(self):
        net = repro.transit_stub_by_size(32, seed=47)
        fleet, workload, _ = build_fleet(bounded(net))
        assert fleet.resource_ledger is not None
        assert len(fleet.resource_managers) == 2
        for shard in fleet.shards:
            assert shard.resources.ledger is fleet.resource_ledger
        for query in workload:
            fleet.submit(query, lifetime=100.0)
        fleet.tick()
        # Both shards' deployments land in the same books.
        per_shard_live = [len(s.live_queries) for s in fleet.shards]
        assert all(n > 0 for n in per_shard_live)
        charged = {
            name
            for node in ratios(fleet.resource_ledger)
            for name in fleet.resource_ledger.queries_on(node)
        }
        assert charged == set(fleet.live_queries)
        assert fleet.check_invariants() == []

    def test_bound_holds_fleet_wide(self):
        net = repro.transit_stub_by_size(32, seed=47)
        fleet, workload, _ = build_fleet(bounded(net))
        for query in workload:
            fleet.submit(query, lifetime=100.0)
        for _ in range(4):
            fleet.tick()
        assert fleet.resource_ledger.violations(1.0) == []
        assert fleet.resource_ledger.max_utilization() <= 1.0 + 1e-9

    def test_hot_nodes_and_queries_on(self):
        net = repro.transit_stub_by_size(32, seed=47)
        fleet, workload, _ = build_fleet(bounded(net))
        for query in workload:
            fleet.submit(query, lifetime=100.0)
        hot = fleet.resource_ledger.hot_nodes(3)
        assert hot and hot[0][1] > 0
        occupants = fleet.resource_ledger.queries_on(hot[0][0])
        assert occupants
        assert set(occupants) <= set(fleet.live_queries)

    def test_summary_and_replay_carry_the_resources_block(self):
        net = repro.transit_stub_by_size(32, seed=47)
        fleet, workload, _ = build_fleet(bounded(net))
        for query in list(workload)[:3]:
            fleet.submit(query, lifetime=10.0)
        fleet.tick()
        summary = fleet.summary()
        assert summary["resources"]["ledger"]["constrained"]
        assert summary["resources"]["ledger"]["max_utilization"] > 0
        json.dumps(summary)
        assert fleet.resource_summary() == summary["resources"]

    def test_fleet_gauges_track_the_ledger(self):
        net = repro.transit_stub_by_size(32, seed=47)
        fleet, workload, _ = build_fleet(bounded(net))
        for query in workload:
            fleet.submit(query, lifetime=100.0)
        fleet.tick()
        assert fleet.registry.get("fleet_resource_max_utilization").value == (
            pytest.approx(fleet.resource_ledger.max_utilization())
        )
        parked = sum(len(m.parked) for m in fleet.resource_managers)
        assert fleet.registry.get("fleet_resource_parked_queries").value == (
            float(parked)
        )


class TestTenantLiveCounts:
    def test_tenant_live_counts_survive_shedding(self):
        net = repro.transit_stub_by_size(32, seed=47)
        tenants = [Tenant("gold", weight=4.0), Tenant("bronze", weight=1.0)]
        fleet, workload, _ = build_fleet(bounded(net), tenants=tenants)
        queries = list(workload)
        for query in queries[:-1]:
            fleet.submit(query, lifetime=100.0, tenant="bronze")
        fleet.submit(queries[-1], lifetime=100.0, tenant="gold")
        # Drift repair retires queries outside the tick reports.
        fleet.rates.update_streams({
            name: repro.StreamSpec(name, spec.source, spec.rate * 1.5)
            for name, spec in fleet.rates.streams.items()
        })
        for _ in range(3):
            fleet.tick()
        assert sum(m.shed_total for m in fleet.resource_managers) >= 1
        live_by_tenant = {"gold": 0, "bronze": 0}
        for name in fleet.live_queries:
            tenant = fleet._tenant_of.get(name)
            if tenant:
                live_by_tenant[tenant] += 1
        gold_gauge = fleet.registry.get("tenant_live_gold").value
        bronze_gauge = fleet.registry.get("tenant_live_bronze").value
        assert gold_gauge == float(live_by_tenant["gold"])
        assert bronze_gauge == float(live_by_tenant["bronze"])


class TestDurableParking:
    def test_each_shards_parked_queries_survive_a_crash(self, tmp_path):
        from repro.durability import DurabilityConfig, recover

        net = repro.transit_stub_by_size(32, seed=47)

        def factory(state_dir):
            return build_fleet(
                # Half of bounded(): tight enough that each shard parks.
                ResourceConfig(
                    capacities=uniform_capacities(
                        net, cpu=300.0, memory=200.0, bandwidth=400.0
                    )
                ),
                durability=DurabilityConfig(
                    state_dir=str(state_dir), snapshot_interval=2
                ),
            )[0]

        live = factory(tmp_path / "state")
        for query in build_fleet(None)[1]:
            live.submit(query, lifetime=100.0)
        live.tick()
        live.tick()  # snapshot: nothing after it but its own marker
        managers = live.resource_managers
        assert all(m.parked for m in managers)

        crashed = shutil.copytree(tmp_path / "state", tmp_path / "crashed")
        recovered, report = recover(crashed, lambda: factory(crashed))
        try:
            assert report.snapshot_lsn > 0 and report.replayed_records == 0
            for got, want in zip(recovered.resource_managers, managers):
                assert got.parked == want.parked
                assert (got.shed_total, got.readmitted_total, got.infeasible_total) == (
                    want.shed_total, want.readmitted_total, want.infeasible_total
                )
            # And both planes go on making the same decisions about them.
            for fleet in (live, recovered):
                for name in sorted(fleet.live_queries)[:3]:
                    fleet.retire(name)
            assert recovered.tick().deployed == live.tick().deployed
            for got, want in zip(recovered.resource_managers, managers):
                assert got.parked == want.parked
                assert got.infeasible_total == want.infeasible_total
        finally:
            live.durability.journal.close()
            recovered.durability.journal.close()


class TestUnarmedSurface:
    def test_introspection_requires_the_layer(self):
        fleet, _, _ = build_fleet(None)
        with pytest.raises(repro.ReproError):
            fleet.resource_summary()
