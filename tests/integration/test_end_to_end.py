"""End-to-end integration tests across subsystems.

These exercise full pipelines the way a downstream user would:
topology -> hierarchy -> workload -> optimize -> deploy -> cost,
SQL text -> planned deployment, runtime simulation with adaptation, and
hierarchy churn interleaved with planning.
"""

import numpy as np
import pytest

import repro
from repro.adaptive import AdaptivityConfig
from repro.core.cost import deployment_cost
from repro.service import StreamQueryService
from tests.adaptive import record_steps
from tests.query.replay import assert_replays


@pytest.fixture(scope="module")
def pipeline_env():
    net = repro.transit_stub_by_size(48, seed=11)
    hierarchy = repro.build_hierarchy(net, max_cs=8, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=8, num_queries=10, joins_per_query=(2, 4)),
        seed=12,
    )
    return net, hierarchy, workload, workload.rate_model()


ALL_PLANNERS = [
    "top-down",
    "bottom-up",
    "optimal",
    "plan-then-deploy",
    "relaxation",
    "in-network",
    "random",
]


class TestFullPipeline:
    @pytest.mark.parametrize("name", ALL_PLANNERS)
    def test_every_planner_deploys_whole_workload(self, pipeline_env, name):
        net, hierarchy, workload, rates = pipeline_env
        optimizer = repro.make_optimizer(name, net, rates, hierarchy=hierarchy)
        state = repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        for query in workload:
            result = repro.deploy_query(optimizer, query, state)
            assert result.marginal_cost >= 0
        assert state.total_cost() > 0
        assert len(state.deployments) == len(workload)
        # every base leaf sits at its source; every operator on a real node
        for deployment in state.deployments:
            for leaf in deployment.plan.leaves():
                if leaf.is_base_stream:
                    assert deployment.placement[leaf] == rates.source(leaf.stream)
            for node in deployment.operator_nodes.values():
                assert net.has_node(node)

    def test_cost_ordering_across_planners(self, pipeline_env):
        net, hierarchy, workload, rates = pipeline_env
        totals = {}
        for name in ("optimal", "top-down", "bottom-up", "random"):
            optimizer = repro.make_optimizer(
                name, net, rates, hierarchy=hierarchy, reuse=False
            )
            costs = net.cost_matrix()
            totals[name] = sum(
                deployment_cost(optimizer.plan(q), costs, rates) for q in workload
            )
        assert totals["optimal"] <= totals["top-down"] + 1e-6
        assert totals["optimal"] <= totals["bottom-up"] + 1e-6
        assert totals["top-down"] <= totals["random"]

    def test_marginal_costs_sum_to_total(self, pipeline_env):
        net, hierarchy, workload, rates = pipeline_env
        optimizer = repro.make_optimizer("top-down", net, rates, hierarchy=hierarchy)
        state = repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        marginals = [repro.deploy_query(optimizer, q, state).marginal_cost for q in workload]
        assert sum(marginals) == pytest.approx(state.total_cost())

    def test_undeploy_everything_returns_to_zero(self, pipeline_env):
        net, hierarchy, workload, rates = pipeline_env
        optimizer = repro.make_optimizer("bottom-up", net, rates, hierarchy=hierarchy)
        state = repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        for query in workload:
            repro.deploy_query(optimizer, query, state)
        for query in reversed(workload.queries):
            state.undeploy(query.name)
        assert state.total_cost() == pytest.approx(0.0)
        assert state.num_operators == 0


class TestSqlPipeline:
    def test_sql_to_deployment(self):
        """SQL text all the way to a running deployment."""
        net, ids = repro.motivating_network()
        streams = {
            "FLIGHTS": repro.StreamSpec("FLIGHTS", ids["FLIGHTS"], 100.0),
            "WEATHER": repro.StreamSpec("WEATHER", ids["WEATHER"], 40.0),
            "CHECK-INS": repro.StreamSpec("CHECK-INS", ids["CHECK-INS"], 120.0),
        }
        rates = repro.RateModel(streams)
        query = repro.parse_query(
            "SELECT FLIGHTS.STATUS, WEATHER.FORECAST FROM FLIGHTS, WEATHER, CHECK-INS "
            "WHERE FLIGHTS.DESTN = WEATHER.CITY AND FLIGHTS.NUM = CHECK-INS.FLNUM",
            name="sql_q",
            sink=ids["Sink4"],
        )
        hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
        state = repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        optimizer = repro.TopDownOptimizer(hierarchy, rates)
        deployment = optimizer.plan(query, state)
        cost = state.apply(deployment)
        assert cost > 0
        assert deployment.plan.sources == frozenset(query.sources)


class TestRuntimeIntegration:
    def test_deploy_congest_adapt_cycle(self):
        net = repro.transit_stub_by_size(32, seed=21)
        hierarchy = repro.build_hierarchy(net, max_cs=8, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=6, num_queries=6, joins_per_query=(1, 3)),
            seed=22,
        )
        rates = workload.rate_model()
        service = StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates),
            net,
            rates,
            hierarchy=hierarchy,
            adaptivity=AdaptivityConfig(min_relative_gain=0.02),
        )
        engine = service.engine

        timelines = []
        for i, query in enumerate(workload):
            service.submit(query, time=float(i))
            deployment = engine.state.deployment(query.name)
            timelines.append(repro.simulate_deployment(net, deployment))
        assert all(t.duration > 0 for t in timelines)

        hot = engine.hottest_links(1)[0]
        net.set_link_cost(hot.u, hot.v, hot.cost * 30)
        steps = record_steps(service.adaptivity)
        service.tick(50.0)
        (report,) = steps
        assert service.topology_epoch == 1
        assert report.evaluated == len(workload)
        assert all(m.new_cost <= m.old_cost for m in report.committed)
        # cost accounting stays consistent after migration
        per_query = sum(
            engine.state.query_cost(q.name) for q in workload
        )
        assert per_query == pytest.approx(engine.total_cost())
        assert_replays(service)

    def test_protocol_and_engine_agree_on_operators(self):
        net = repro.transit_stub_by_size(32, seed=23)
        hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=6, num_queries=4, joins_per_query=(2, 3)),
            seed=24,
        )
        rates = workload.rate_model()
        optimizer = repro.BottomUpOptimizer(hierarchy, rates)
        for query in workload:
            deployment = optimizer.plan(query)
            timeline = repro.simulate_deployment(net, deployment)
            # one deploy command per (planning visit, distinct node); at
            # least the distinct operator nodes, at most one per join
            distinct_nodes = len(
                {deployment.placement[j] for j in deployment.plan.joins()}
            )
            assert distinct_nodes <= timeline.operators_deployed
            assert timeline.operators_deployed <= max(1, deployment.plan.num_joins)


class TestChurnWithPlanning:
    def test_planning_survives_node_churn(self):
        """Plan, mutate the hierarchy (join/leave), re-plan: all valid."""
        from repro.hierarchy import add_node, remove_node

        net = repro.random_geometric(24, seed=31)
        hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=5, num_queries=4, joins_per_query=(2, 3)),
            seed=32,
        )
        rates = workload.rate_model()
        optimizer = repro.TopDownOptimizer(hierarchy, rates)
        costs = net.cost_matrix()
        first = [optimizer.plan(q) for q in workload]

        rng = np.random.default_rng(33)
        # add nodes (never remove stream sources/sinks: they must remain)
        protected = {s.source for s in rates.streams.values()} | {
            q.sink for q in workload
        }
        for _ in range(4):
            new = net.add_node()
            net.add_link(new, int(rng.integers(0, new)), cost=float(rng.uniform(1, 4)))
            add_node(hierarchy, new, seed=int(rng.integers(0, 1 << 30)))
        removable = [n for n in hierarchy.root.subtree_nodes() if n not in protected]
        for victim in removable[:3]:
            remove_node(hierarchy, victim)
        hierarchy.validate()

        second = [optimizer.plan(q) for q in workload]
        costs = net.cost_matrix()
        for deployment in second:
            assert deployment_cost(deployment, costs, rates) > 0

    def test_multiple_hierarchies_one_network(self):
        """The paper: several hierarchies with different max_cs coexist."""
        net = repro.transit_stub_by_size(48, seed=41)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=6, num_queries=5, joins_per_query=(2, 3)),
            seed=42,
        )
        rates = workload.rate_model()
        costs = net.cost_matrix()
        results = {}
        for cs in (4, 16):
            hierarchy = repro.build_hierarchy(net, max_cs=cs, seed=0)
            optimizer = repro.TopDownOptimizer(hierarchy, rates)
            results[cs] = sum(
                deployment_cost(optimizer.plan(q), costs, rates) for q in workload
            )
        assert all(v > 0 for v in results.values())
