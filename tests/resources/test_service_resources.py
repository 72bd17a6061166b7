"""Capacity-bounded service behavior: park, shed, re-admit, and the
fleet-feasibility property (no accepted placement ever exceeds its
bound -- even under statistics drift)."""

import shutil

import pytest

import repro
from repro.errors import InfeasiblePlacementError
from repro.resources import ResourceConfig, uniform_capacities
from repro.service import AdmissionStatus, StreamQueryService, churn_trace
from tests.query.replay import assert_replays

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


def bounded_config(net, **overrides):
    return ResourceConfig(
        capacities=uniform_capacities(net, **_CAPS), **overrides
    )


def assert_feasible(service):
    bound = service.resources.config.utilization_bound
    assert service.resources.ledger.violations(bound) == []


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
    def test_heavy_query_sheds_lighter_ones(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(None)  # probe names first
        queries = list(workload)
        heavy = queries[-1].name
        weights = {q.name: 0.5 for q in queries}
        weights[heavy] = 5.0
        service, workload, _ = build_service(
            bounded_config(net, query_weights=weights)
        )
        manager = service.resources
        for i, query in enumerate(list(workload)):
            service.submit(query, lifetime=100.0, time=float(i))
        # The heavy query arrives last into a saturated fleet: lighter
        # victims are shed (and parked) rather than the heavy one.
        assert service.is_live(heavy)
        assert manager.shed_total >= 1
        shed = [p for p in manager.parked.values() if p.shed]
        assert shed
        assert all(p.weight < manager.weight_of(heavy) for p in shed)
        assert_feasible(service)
        assert_replays(service)

        # Retiring the heavy query frees room: the victims come back.
        service.retire(heavy)
        report = service.tick(20.0)
        assert {p.query.name for p in shed} & set(report.deployed)
        assert_feasible(service)
        assert_replays(service)

    def test_shed_disabled_raises_from_the_planner(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(bounded_config(net, shed=False))
        queries = list(workload)
        parked = []
        for i, query in enumerate(queries):
            decision = service.submit(query, lifetime=100.0, time=float(i))
            if decision.status is AdmissionStatus.QUEUED:
                parked.append(query.name)
        assert parked
        assert service.resources.shed_total == 0
        # Directly planning the parked query must surface the error.
        victim = service.resources.parked[parked[0]].query
        with pytest.raises(InfeasiblePlacementError):
            service.resources.plan_feasible(service, victim)

    def test_shed_victims_keep_remaining_lifetime(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(None)
        heavy = list(workload)[-1].name
        weights = {q.name: 0.5 for q in workload}
        weights[heavy] = 5.0
        service, workload, _ = build_service(
            bounded_config(net, query_weights=weights)
        )
        for i, query in enumerate(list(workload)):
            service.submit(query, lifetime=50.0, time=float(i))
        shed = [p for p in service.resources.parked.values() if p.shed]
        assert shed
        for entry in shed:
            assert entry.lifetime is not None
            assert 0 < entry.lifetime <= 50.0


    def test_gate_replans_when_a_victim_took_a_reused_view_with_it(self):
        """With resilience armed the baseline rung plans unconstrained, so
        the gate is what sheds; a victim that held a view the plan reuses
        used to leave ``apply`` a plan over an operator that was gone."""
        from repro.adaptive import AdaptivityConfig
        from repro.resilience.degradation import ResilienceConfig
        from tests.fleet.conftest import renamed

        net = repro.transit_stub_by_size(32, seed=47)
        hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=6, num_queries=10, joins_per_query=(1, 3)),
            seed=48,
        )
        sinks = sorted({query.sink for query in workload})[:3]
        pool = [
            renamed(query, query.name, sink=sinks[index % 3])
            for index, query in enumerate(workload)
        ]
        rates = workload.rate_model()
        ads = repro.AdvertisementIndex(hierarchy)
        service = StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates, ads=ads),
            net,
            rates,
            hierarchy=hierarchy,
            ads=ads,
            resilience=ResilienceConfig(),
            adaptivity=AdaptivityConfig(
                alpha=1.0, hysteresis_ticks=1, publish_cooldown=0.0, query_cooldown=0.0
            ),
            resources=bounded_config(
                net,
                query_weights={q.name: 1.0 + i % 3 for i, q in enumerate(pool)},
            ),
        )
        for index, query in enumerate(pool):
            service.submit(query, lifetime=None if index % 2 else 6.0)
        samples = {name: spec.rate for name, spec in rates.streams.items()}
        samples[sorted(samples)[1]] *= 0.5
        service.observe_rates(samples)
        service.tick()
        service.tick()  # re-admits a parked query through the gate
        assert service.resources.shed_total >= 1
        assert_feasible(service)


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
        utils = ledger.utilizations()
        for node, util in utils.items():
            assert reg.get(f"resource_node_utilization_n{node}").value == (
                pytest.approx(util)
            )

    def test_shed_counter_tracks_the_manager(self):
        net = repro.transit_stub_by_size(32, seed=47)
        service, workload, _ = build_service(None)
        heavy = list(workload)[-1].name
        weights = {q.name: 0.5 for q in workload}
        weights[heavy] = 5.0
        service, workload, _ = build_service(
            bounded_config(net, query_weights=weights)
        )
        for i, query in enumerate(list(workload)):
            service.submit(query, lifetime=100.0, time=float(i))
        service.tick(10.0)
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
