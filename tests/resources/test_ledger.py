"""The ledger derives loads from deployment states, reuse charged once."""

import pytest

import repro
from repro.resources import (
    NodeCapacity,
    OperatorFootprint,
    ResourceConfig,
    ResourceLedger,
    plan_node_loads,
    uniform_capacities,
)
from repro.service import StreamQueryService
from tests.resources.reference_ledger import ratios


def build_service(resources=None, seed=47, budget=None):
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
    kwargs = {}
    if budget is not None:
        kwargs["admission"] = repro.AdmissionController(budget=budget)
    service = StreamQueryService(
        optimizer, net, rates, hierarchy=hierarchy, ads=ads,
        resources=resources, **kwargs,
    )
    return service, workload, net


def total_cpu(ledger):
    return sum(load.cpu for load in ledger.node_loads().values())


class TestDerivedAccounting:
    def test_loads_appear_on_deploy_and_vanish_on_retire(self):
        service, workload, _ = build_service(resources=ResourceConfig())
        ledger = service.resources.ledger
        assert ledger.node_loads() == {}
        queries = list(workload)
        service.submit(queries[0])
        loaded = total_cpu(ledger)
        assert loaded > 0
        service.retire(queries[0].name)
        assert ledger.node_loads() == {}

    def test_join_count_matches_charged_operators(self):
        service, workload, _ = build_service(resources=ResourceConfig())
        ledger = service.resources.ledger
        query = list(workload)[0]
        service.submit(query)
        deployment = service.engine.state.deployments[0]
        expected_keys = {
            (query.view_signature(j.sources), deployment.placement[j])
            for j in deployment.plan.joins()
        }
        assert ledger.operator_keys() == expected_keys

    def test_shared_view_is_charged_once(self):
        service, workload, _ = build_service(resources=ResourceConfig())
        ledger = service.resources.ledger
        queries = list(workload)
        first = queries[0]
        service.submit(first)
        solo = total_cpu(ledger)
        # An identical-shape query (same sources/predicates, new name)
        # reuses the deployed view: the ledger must not double-charge.
        twin = repro.Query(
            name="twin",
            sources=first.sources,
            sink=first.sink,
            predicates=first.predicates,
            filters=first.filters,
            projection=first.projection,
            window=first.window,
        )
        service.submit(twin)
        state = service.engine.state
        shared = [
            key
            for key in state.operators()
            if len(state.queries_using(*key)) > 1
        ]
        assert shared, "scenario must actually share an operator"
        assert total_cpu(ledger) == pytest.approx(solo)

    def test_operator_outliving_its_owner_stays_charged(self):
        service, workload, _ = build_service(resources=ResourceConfig())
        ledger = service.resources.ledger
        first = list(workload)[0]
        service.submit(first)
        solo = total_cpu(ledger)
        twin = repro.Query(
            name="twin",
            sources=first.sources,
            sink=first.sink,
            predicates=first.predicates,
            filters=first.filters,
            projection=first.projection,
            window=first.window,
        )
        service.submit(twin)
        # Retiring the owner leaves the shared operator running for the
        # reuser; the ledger must keep charging it.
        service.retire(first.name)
        assert service.is_live("twin")
        if ledger.operator_keys():
            assert total_cpu(ledger) == pytest.approx(solo)
        service.retire("twin")
        assert ledger.node_loads() == {}

    def test_utilization_against_capacities(self):
        net = repro.transit_stub_by_size(32, seed=47)
        caps = uniform_capacities(net, cpu=100.0)
        service, workload, _ = build_service(
            resources=ResourceConfig(capacities=caps, utilization_bound=10.0)
        )
        # Rebuild with the same network seed so node ids line up.
        ledger = service.resources.ledger
        assert ledger.constrained
        service.submit(list(workload)[0])
        utils = ratios(ledger)
        assert utils
        assert ledger.max_utilization() == pytest.approx(max(utils.values()))
        hot = ledger.hot_nodes(3)
        assert hot == sorted(
            utils.items(), key=lambda kv: (-kv[1], kv[0])
        )[:3]

    def test_queries_on_names_occupants(self):
        service, workload, _ = build_service(resources=ResourceConfig())
        ledger = service.resources.ledger
        query = list(workload)[0]
        service.submit(query)
        deployment = service.engine.state.deployments[0]
        for join in deployment.plan.joins():
            assert query.name in ledger.queries_on(deployment.placement[join])
        assert ledger.queries_on(-1) == []

    def test_violations_sorted_hottest_first(self):
        ledger = ResourceLedger({0: NodeCapacity(cpu=1.0), 1: NodeCapacity(cpu=1.0)})
        from repro.resources import Load

        extra = {0: Load(cpu=2.0), 1: Load(cpu=3.0)}
        out = ledger.violations(bound=1.0, extra=extra)
        assert out == [(1, 3.0), (0, 2.0)]
        assert ledger.violations(bound=5.0, extra=extra) == []

    def test_summary_is_jsonable(self):
        import json

        service, workload, _ = build_service(resources=ResourceConfig())
        service.submit(list(workload)[0])
        json.dumps(service.resources.ledger.summary())


class TestPlanNodeLoads:
    def test_skip_keys_credit_live_operators(self):
        service, workload, _ = build_service(resources=ResourceConfig())
        query = list(workload)[0]
        service.submit(query)
        deployment = service.engine.state.deployments[0]
        fp = OperatorFootprint(service.rates)
        full = plan_node_loads(fp, query, deployment.plan, deployment.placement)
        assert sum(l.cpu for l in full.values()) > 0
        credited = plan_node_loads(
            fp,
            query,
            deployment.plan,
            deployment.placement,
            skip_keys=service.resources.ledger.operator_keys(),
        )
        assert credited == {}
