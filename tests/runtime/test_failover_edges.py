"""Failover edge cases: singleton collapse, sink death."""

import pytest

import repro
from repro.hierarchy.maintenance import remove_node
from repro.runtime.failover import backup_coordinator, fail_node


@pytest.fixture()
def system():
    net = repro.transit_stub_by_size(32, seed=51)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=6, joins_per_query=(1, 3)),
        seed=52,
    )
    rates = workload.rate_model()
    engine = repro.FlowEngine(net, rates)
    optimizer = repro.TopDownOptimizer(hierarchy, rates)
    return net, hierarchy, workload, rates, engine, optimizer


class TestSingletonClusterCollapse:
    def test_failing_a_singletons_only_member_drops_the_cluster(self, system):
        net, hierarchy, *_ = system
        # shrink one leaf cluster down to a single member
        cluster = next(c for c in hierarchy.levels[0] if c.size >= 3)
        while cluster.size > 1:
            victim = next(m for m in cluster.members if m != cluster.coordinator)
            remove_node(hierarchy, victim)
            assert hierarchy.invariant_violations() == []
        survivor = cluster.members[0]
        assert backup_coordinator(cluster, net.cost_matrix()) is None

        clusters_before = len(hierarchy.levels[0])
        report = fail_node(hierarchy, survivor)
        assert report.node == survivor
        # no backup existed: nobody took over any of its roles
        assert report.new_coordinators == {}
        assert survivor not in hierarchy.root.subtree_nodes()
        assert len(hierarchy.levels[0]) == clusters_before - 1
        assert hierarchy.invariant_violations() == []


class TestSinkDeath:
    def test_an_endpoint_alone_makes_a_query_affected(self, system):
        net, hierarchy, workload, rates, engine, optimizer = system
        for query in workload:
            engine.deploy(optimizer.plan(query, engine.state))
        hosts = {node for deployment in engine.state.deployments
                 for node in deployment.operator_nodes.values()}
        query = next(q for q in workload if q.sink not in hosts)
        report = fail_node(hierarchy, query.sink, engine=engine)
        assert query.name in report.affected_queries
