"""Tests for node-load tracking."""

import pytest

import repro


@pytest.fixture()
def loaded_system():
    net = repro.transit_stub_by_size(32, seed=141)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(2, 3)),
        seed=142,
    )
    rates = workload.rate_model()
    engine = repro.FlowEngine(net, rates)
    optimizer = repro.TopDownOptimizer(hierarchy, rates)
    for query in workload:
        engine.deploy(optimizer.plan(query, engine.state))
    return net, workload, rates, engine, optimizer


class TestNodeLoads:
    def test_loads_cover_all_operator_nodes(self, loaded_system):
        net, workload, rates, engine, _ = loaded_system
        loads = engine.node_loads()
        operator_nodes = {node for (_, node) in engine.state.operators()}
        # filtered-base-stream "operators" carry no join load; every join
        # node must be present though
        for deployment in engine.state.deployments:
            for join in deployment.plan.joins():
                assert deployment.placement[join] in loads

    def test_load_equals_sum_of_child_rates(self, loaded_system):
        net, workload, rates, engine, _ = loaded_system
        loads = engine.node_loads()
        manual: dict[int, float] = {}
        for deployment in engine.state.deployments:
            for join in deployment.plan.joins():
                node = deployment.placement[join]
                manual[node] = manual.get(node, 0.0) + sum(
                    rates.rate_for(deployment.query, c.sources)
                    for c in (join.left, join.right)
                )
        for node, load in manual.items():
            assert loads[node] == pytest.approx(load)

