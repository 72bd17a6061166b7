"""With ``resources=None`` -- or armed but unbounded -- nothing changes.

Mirror of the durability/telemetry null-regression contract, with one
extra tier: the resource layer must be invisible not only when absent
but also when *armed with all-unbounded capacities* -- decision for
decision, cost for cost.
"""

import pytest

import repro
from repro.fleet import FleetController
from repro.resources import ResourceConfig, uniform_capacities
from repro.service import AdmissionController, StreamQueryService, churn_trace


def build_service(resources=None, seed=47):
    net = repro.transit_stub_by_size(32, seed=seed)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(1, 3)),
        seed=seed + 1,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = repro.TopDownOptimizer(hierarchy, rates, ads=ads)
    service = StreamQueryService(
        optimizer,
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(budget=6),
        resources=resources,
    )
    return service, workload


def clean(summary):
    return {k: v for k, v in summary.items() if k != "resources"}


class TestServiceParity:
    def test_replay_identical_with_and_without_the_layer(self):
        plain, workload = build_service(resources=None)
        armed, _ = build_service(resources=ResourceConfig())
        assert plain.resources is None
        assert armed.resources is not None
        assert not armed.resources.constrained

        trace = churn_trace(workload, lifetime=4.0, repeats=2)
        report_plain = plain.replay(list(trace))
        report_armed = armed.replay(list(trace))

        assert report_plain.decisions == report_armed.decisions
        assert report_plain.ticks == report_armed.ticks
        assert clean(report_plain.summary) == clean(report_armed.summary)
        assert plain.total_cost() == armed.total_cost()
        # the armed run carries its own summary block
        assert "resources" in report_armed.summary
        assert "resources" not in report_plain.summary

    def test_unbounded_capacities_are_also_invisible(self):
        # Armed AND carrying explicit capacities -- all infinite.  The
        # constraint must never be built, so decisions stay identical.
        plain, workload = build_service(resources=None)
        net = repro.transit_stub_by_size(32, seed=47)
        armed, _ = build_service(
            resources=ResourceConfig(capacities=uniform_capacities(net))
        )
        assert not armed.resources.constrained

        trace = churn_trace(workload, lifetime=4.0, repeats=2)
        report_plain = plain.replay(list(trace))
        report_armed = armed.replay(list(trace))
        assert report_plain.decisions == report_armed.decisions
        assert clean(report_plain.summary) == clean(report_armed.summary)
        assert plain.total_cost() == armed.total_cost()

    def test_default_service_exposes_no_resource_metrics(self):
        plain, _ = build_service(resources=None)
        armed, _ = build_service(resources=ResourceConfig())
        plain_names = set(plain.registry.names())
        armed_names = set(armed.registry.names())
        assert not {n for n in plain_names if n.startswith("resource_")}
        assert {n for n in armed_names if n.startswith("resource_")}
        assert plain_names == {
            n for n in armed_names if not n.startswith("resource_")
        }

    def test_default_service_has_no_hooks(self):
        plain, _ = build_service(resources=None)
        assert plain.resources is None
        assert getattr(plain.optimizer, "resources", None) is None

    def test_armed_service_wires_the_planner(self):
        armed, _ = build_service(resources=ResourceConfig())
        assert armed.optimizer.resources is armed.resources


class TestFleetParity:
    def test_fleet_parity_and_shard_guard(self):
        net = repro.transit_stub_by_size(32, seed=3)
        hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=6, num_queries=6, joins_per_query=(1, 3)),
            seed=4,
        )
        rates = workload.rate_model()

        def build(resources):
            return FleetController(
                2, net, rates, hierarchy, policy="hash", budget=4,
                resources=resources,
            )

        plain = build(None)
        armed = build(ResourceConfig())
        for query in workload:
            plain.submit(query, lifetime=4.0)
            armed.submit(query, lifetime=4.0)
        for _ in range(6):
            plain.tick()
            armed.tick()
        assert plain.live_queries == armed.live_queries
        assert plain.total_cost() == armed.total_cost()
        assert plain.check_invariants() == armed.check_invariants() == []
        # One shared ledger, one manager per shard.
        assert armed.resource_ledger is not None
        assert len(armed.resource_managers) == 2
        assert all(
            s.resources.ledger is armed.resource_ledger for s in armed.shards
        )
        # Shards must not be armed independently.
        with pytest.raises(repro.ReproError):
            FleetController(
                2, net, rates, hierarchy,
                service_kwargs={"resources": ResourceConfig()},
            )
        # And the fleet takes a config, not a manager.
        with pytest.raises(repro.ReproError):
            FleetController(
                2, net, rates, hierarchy,
                resources=repro.ResourceManager(ResourceConfig()),
            )

    def test_unarmed_fleet_has_no_resource_surface(self):
        net = repro.transit_stub_by_size(16, seed=3)
        hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=4, num_queries=2, joins_per_query=(1, 2)),
            seed=4,
        )
        fleet = FleetController(1, net, workload.rate_model(), hierarchy)
        assert fleet.resource_ledger is None
        assert fleet.resource_managers == []
        assert not {
            n for n in fleet.registry.names() if "resource" in n
        }
        with pytest.raises(repro.ReproError):
            fleet.resource_summary()
