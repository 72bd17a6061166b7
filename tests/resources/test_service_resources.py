"""Capacity-bounded service behavior: park, re-admit, drift repair, and
the fleet-feasibility property (no accepted placement ever exceeds its
bound -- even under statistics drift)."""

import shutil

import pytest

import repro
from repro.errors import InfeasiblePlacementError
from repro.fleet import FleetController, Tenant
from repro.resources import ResourceConfig, uniform_capacities
from repro.service import AdmissionStatus, StreamQueryService, churn_trace
from tests.query.replay import assert_replays
from tests.resources.reference_ledger import ratios

#: comfortable headroom for ~7 of the 8 workload queries on this net
_CAPS = dict(cpu=600.0, memory=400.0, bandwidth=800.0)


def build_service(resources, seed=47, num_queries=8, **layers):
    net = repro.transit_stub_by_size(32, seed=seed)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(
            num_streams=6, num_queries=num_queries, joins_per_query=(1, 3)
        ),
        seed=seed + 1,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = repro.TopDownOptimizer(hierarchy, rates, ads=ads)
    service = StreamQueryService(
        optimizer, net, rates, hierarchy=hierarchy, ads=ads, resources=resources,
        **layers,
    )
    return service, workload, net


def build_weighted(resources, heavy, **layers):
    """One shard under a tenant fleet, the :func:`build_service` world:
    ``heavy`` is submitted as tenant ``heavy`` (weight 5), every other
    query as ``light`` (0.5).  Returns ``(fleet, shard, submit,
    workload, net)``."""
    net = repro.transit_stub_by_size(32, seed=47)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(1, 3)),
        seed=48,
    )
    fleet = FleetController(
        1,
        net,
        workload.rate_model(),
        hierarchy,
        tenants=[Tenant("heavy", weight=5.0), Tenant("light", weight=0.5)],
        service_kwargs=layers,
        resources=resources,
    )

    def submit(query, **kwargs):
        tenant = "heavy" if query.name == heavy else "light"
        return fleet.submit(query, tenant=tenant, **kwargs)

    return fleet, fleet.shards[0], submit, workload, net


def bounded_config(net, **overrides):
    return ResourceConfig(
        capacities=uniform_capacities(net, **_CAPS), **overrides
    )


def assert_feasible(service):
    bound = service.resources.config.utilization_bound
    assert service.resources.ledger.violations(bound) == []


def drift_shed(service, workload, lifetime=None):
    """Fill ``service`` from ``workload``, then let the rates drift 1.5x
    upward and tick once: drift repair sheds live queries."""
    for i, query in enumerate(workload):
        service.submit(query, lifetime=lifetime, time=float(i))
    inflated = {
        name: repro.StreamSpec(name, spec.source, spec.rate * 1.5)
        for name, spec in service.rates.streams.items()
    }
    service.rates.update_streams(inflated)
    service.tick(10.0)
    shed = [p for p in service.resources.parked.values() if p.shed]
    assert shed, "the drift must push a node over its bound"
    return shed


class TestParkAndReadmit:
    def test_infeasible_query_parks_then_readmits_on_recovery(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(bounded_config(net))
        queries = list(workload)
        parked = []
        for i, query in enumerate(queries):
            decision = service.submit(query, lifetime=100.0, time=float(i))
            if decision.status is AdmissionStatus.QUEUED:
                assert decision.reason.startswith("parked:")
                parked.append(query.name)
        assert parked, "capacities must force at least one park"
        manager = service.resources
        assert set(parked) <= set(manager.parked)
        for name in parked:
            assert not service.is_live(name)
        assert_feasible(service)

        # Free capacity and tick: the parked queries come back.
        live = [q.name for q in queries if service.is_live(q.name)]
        for name in live:
            service.retire(name)
        report = service.tick(20.0)
        assert set(parked) & set(report.deployed)
        assert manager.readmitted_total >= 1
        assert_feasible(service)

    def test_parked_queries_survive_a_crash(self, tmp_path):
        # The snapshot used to leave the manager's parked set and counters
        # out: a query parked for capacity was gone after recovery.
        from repro.durability import DurabilityConfig, recover

        net = repro.transit_stub_by_size(32, seed=47)

        def factory(state_dir):
            service, _, _ = build_service(
                bounded_config(net),
                durability=DurabilityConfig(
                    state_dir=str(state_dir), snapshot_interval=2
                ),
            )
            return service

        live = factory(tmp_path / "state")
        for i, query in enumerate(build_service(None)[1]):
            live.submit(query, lifetime=100.0, time=float(i))
        live.tick(10.0)
        live.tick(11.0)  # snapshot: nothing after it but its own marker
        manager = live.resources
        assert manager.parked and manager.infeasible_total >= 1

        # The crash: recover from what is on disk while ``live`` goes on.
        crashed = shutil.copytree(tmp_path / "state", tmp_path / "crashed")
        recovered, report = recover(crashed, lambda: factory(crashed))
        try:
            assert report.snapshot_lsn > 0 and report.replayed_records == 0
            got = recovered.resources
            assert got.parked == manager.parked  # ParkedQuery is a dataclass
            assert (got.shed_total, got.readmitted_total, got.infeasible_total) == (
                manager.shed_total, manager.readmitted_total, manager.infeasible_total
            )
            # Free capacity on both: the same parked queries come back.
            for service in (live, recovered):
                for name in sorted(service.live_queries):
                    service.retire(name)
            parked = sorted(manager.parked)
            assert live.tick(20.0).deployed == parked
            assert recovered.tick(20.0).deployed == parked
            assert got.readmitted_total == manager.readmitted_total == len(parked)
            assert not got.parked
            assert_feasible(recovered)
        finally:
            live.durability.journal.close()
            recovered.durability.journal.close()

    def test_retire_drops_a_parked_query(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(bounded_config(net))
        parked = []
        for i, query in enumerate(workload):
            decision = service.submit(query, time=float(i))
            if decision.status is AdmissionStatus.QUEUED:
                parked.append(query.name)
        assert parked
        name = parked[0]
        assert service.retire(name) is False
        assert name not in service.resources.parked

    def test_a_query_that_fits_is_not_starved_by_ones_that_never_do(self):
        # Re-admission tries two parked queries a tick.  A failed attempt
        # used to keep its place at the front of the lot, so two queries
        # that fit nowhere blocked every query behind them for good.
        net = repro.transit_stub_by_size(32, seed=47)
        caps = uniform_capacities(net, cpu=360.0, memory=240.0, bandwidth=480.0)
        service, workload, _ = build_service(ResourceConfig(capacities=caps))
        queries = {query.name: query for query in workload}
        # q7 fills the net; q1 and q2 fit nowhere even alone; q3 only
        # waits for q7 to go.
        for i, name in enumerate(("q7", "q1", "q2", "q3")):
            service.submit(queries[name], time=float(i))
        manager = service.resources
        assert list(manager.parked) == ["q1", "q2", "q3"]
        service.retire("q7")
        ticks = -(-len(manager.parked) // 2)
        deployed = [service.tick(10.0 + t).deployed for t in range(ticks)]
        assert "q3" in sum(deployed, [])
        assert sorted(manager.parked) == ["q1", "q2"]
        assert_feasible(service)

    def test_a_heavier_tenants_query_parks_and_evicts_nothing(self):
        net = repro.transit_stub_by_size(32, seed=47)
        heavy = list(build_service(None)[1])[-1].name  # probe names first
        fleet, service, submit, workload, _ = build_weighted(
            bounded_config(net), heavy
        )
        manager = service.resources
        left = []
        for i, query in enumerate(list(workload)):
            live = set(service.live_queries)
            submit(query, lifetime=100.0, time=float(i))
            left += live - set(service.live_queries)
        # The heavy query arrives last into a saturated shard: it parks,
        # and no lighter live query makes room for it.
        assert not service.is_live(heavy)
        assert heavy in manager.parked
        assert left == [] and manager.shed_total == 0
        assert not any(p.shed for p in manager.parked.values())
        assert_feasible(service)
        assert_replays(service)

    def test_plan_feasible_raises_for_a_parked_query(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(bounded_config(net))
        for i, query in enumerate(workload):
            service.submit(query, lifetime=100.0, time=float(i))
        manager = service.resources
        assert manager.parked and manager.shed_total == 0
        infeasible = manager.infeasible_total
        # Directly planning the parked query surfaces the error, counted.
        victim = next(iter(manager.parked.values())).query
        with pytest.raises(InfeasiblePlacementError) as raised:
            manager.plan_feasible(service, victim)
        assert str(raised.value) == (
            f"no feasible placement for {victim.name!r} under utilization bound 1.0"
        )
        assert manager.infeasible_total == infeasible + 1

    def test_a_snapshot_with_parked_weights_restores(self):
        # Snapshots written while admission weighed queries carry a
        # ``weight`` per parked query; recovery drops it.
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(bounded_config(net))
        for i, query in enumerate(workload):
            service.submit(query, lifetime=100.0, time=float(i))
        doc = service.resources.capture()
        assert doc["parked"] and not any("weight" in p for p in doc["parked"])
        old = {**doc, "parked": [{**p, "weight": 1.0} for p in doc["parked"]]}
        twin = build_service(bounded_config(net))[0].resources
        twin.restore(old)
        assert twin.parked == service.resources.parked
        assert twin.capture() == doc

    @pytest.mark.parametrize("endpoint", ("sink", "source"))
    def test_parked_query_waits_out_a_failed_endpoint(self, endpoint):
        # Re-admission used to let the planner's lookup error (the sink or
        # a source is no longer in the hierarchy) escape from tick().
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(bounded_config(net))
        queries = list(workload)
        for i, query in enumerate(queries):
            service.submit(query, lifetime=100.0, time=float(i))
        manager = service.resources
        assert manager.parked, "capacities must force at least one park"
        query = next(iter(manager.parked.values())).query
        node = (
            query.sink if endpoint == "sink"
            else service.rates.source(query.sources[0])
        )
        service.handle_node_failure(node)
        # Capacity is back, but the query cannot be planned yet.
        for other in queries:
            if service.is_live(other.name):
                service.retire(other.name)
        report = service.tick(20.0)
        assert query.name not in report.deployed
        assert query.name in manager.parked

        assert service.rejoin_node(node)
        report = service.tick(21.0)
        assert query.name in report.deployed
        assert query.name not in manager.parked
        assert service.is_live(query.name)
        assert_feasible(service)

    def test_unconstrained_infeasible_error_propagates(self):
        # A plain service (no resource layer) must never see the
        # exception type swallowed.
        service, workload, _ = build_service(None)
        for query in workload:
            decision = service.submit(query)
            assert decision.admitted


class TestShedding:
    def test_shed_victims_keep_remaining_lifetime(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(bounded_config(net))
        shed = drift_shed(service, workload, lifetime=50.0)
        for entry in shed:
            assert entry.reason == "shed for 'drift repair'"
            assert entry.lifetime is not None
            assert 0 < entry.lifetime <= 50.0


class TestInstruments:
    def test_gauges_and_counters_reflect_activity(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(bounded_config(net))
        for i, query in enumerate(workload):
            service.submit(query, lifetime=100.0, time=float(i))
        service.tick(10.0)
        reg = service.registry
        bound = service.resources.config.utilization_bound
        assert 0 < reg.get("resource_max_utilization").value <= bound + 1e-9
        assert reg.get("resource_parked_queries").value == float(
            len(service.resources.parked)
        )
        ledger = service.resources.ledger
        utils = ratios(ledger)
        for node, util in utils.items():
            assert reg.get(f"resource_node_utilization_n{node}").value == (
                pytest.approx(util)
            )

    def test_shed_counter_tracks_the_manager(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(bounded_config(net))
        drift_shed(service, workload)
        reg = service.registry
        assert reg.get("resource_shed_total").value == float(
            service.resources.shed_total
        )
        assert service.resources.shed_total >= 1


def _install_deploy_spy(service):
    """After every install the whole fleet must still fit its bound."""
    engine = service.engine
    original = engine.deploy
    bound = service.resources.config.utilization_bound
    ledger = service.resources.ledger
    checked = []

    def spy(deployment, **kwargs):
        out = original(deployment, **kwargs)
        violations = ledger.violations(bound)
        checked.append(deployment.query.name)
        assert violations == [], (
            f"deploying {deployment.query.name!r} violated the bound: "
            f"{violations}"
        )
        return out

    engine.deploy = spy
    return checked


class TestFeasibilityProperty:
    @pytest.mark.parametrize("seed", [7, 21, 47])
    def test_no_accepted_placement_exceeds_the_bound(self, seed):
        net = repro.transit_stub_by_size(32, seed=seed)
        service, workload, _ = build_service(bounded_config(net), seed=seed)
        checked = _install_deploy_spy(service)
        service.replay(list(churn_trace(workload, lifetime=4.0, repeats=2)))
        assert checked, "churn must actually deploy queries"
        assert_feasible(service)

    @pytest.mark.parametrize("seed", [7, 47])
    def test_bound_holds_under_statistics_drift(self, seed):
        net = repro.transit_stub_by_size(32, seed=seed)
        service, workload, _ = build_service(bounded_config(net), seed=seed)
        checked = _install_deploy_spy(service)
        queries = list(workload)
        half = len(queries) // 2
        for i, query in enumerate(queries[:half]):
            service.submit(query, lifetime=30.0, time=float(i))
        # Rates drift upward mid-run; re-optimization and later
        # admissions must keep respecting the bound at the new rates.
        inflated = {
            name: repro.StreamSpec(name, spec.source, spec.rate * 1.8)
            for name, spec in service.rates.streams.items()
        }
        service.rates.update_streams(inflated)
        for i, query in enumerate(queries[half:]):
            service.submit(query, lifetime=30.0, time=float(half + i))
        for t in range(half + len(queries), half + len(queries) + 5):
            service.tick(float(t))
        assert checked
        assert_feasible(service)

    def test_tighter_bound_is_respected(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(
            bounded_config(net, utilization_bound=0.5)
        )
        checked = _install_deploy_spy(service)
        for i, query in enumerate(workload):
            service.submit(query, lifetime=100.0, time=float(i))
        assert checked
        assert service.resources.ledger.max_utilization() <= 0.5 + 1e-9
