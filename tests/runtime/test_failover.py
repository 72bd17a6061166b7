"""Tests for node-failure handling and coordinator backups."""

import numpy as np
import pytest

import repro
from repro.adaptive import AdaptivityConfig
from repro.runtime.failover import FailureReport, backup_coordinator, fail_node


@pytest.fixture()
def running_system():
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
    for query in workload:
        engine.deploy(optimizer.plan(query, engine.state))
    return net, hierarchy, workload, rates, engine, optimizer


class TestBackupCoordinator:
    def test_backup_is_a_member_but_not_coordinator(self, running_system):
        net, hierarchy, *_ = running_system
        costs = net.cost_matrix()
        for cluster in hierarchy.levels[0]:
            backup = backup_coordinator(cluster, costs)
            if cluster.size == 1:
                assert backup is None
            else:
                assert backup in cluster.members
                assert backup != cluster.coordinator

    def test_backup_takes_over_on_failure(self, running_system):
        net, hierarchy, *_ = running_system
        costs = net.cost_matrix()
        cluster = next(c for c in hierarchy.levels[0] if c.size >= 3)
        coordinator = cluster.coordinator
        expected_backup = backup_coordinator(cluster, costs)
        report = fail_node(hierarchy, coordinator)
        hierarchy.validate()
        assert 1 in report.coordinator_roles
        assert report.new_coordinators[1] == expected_backup


class TestFailNode:
    def test_non_coordinator_failure(self, running_system):
        net, hierarchy, *_ = running_system
        cluster = next(c for c in hierarchy.levels[0] if c.size >= 3)
        victim = next(m for m in cluster.members if m != cluster.coordinator)
        report = fail_node(hierarchy, victim)
        assert report.coordinator_roles == []
        assert victim not in hierarchy.root.subtree_nodes()
        hierarchy.validate()

    def test_multi_level_coordinator_failure(self, running_system):
        net, hierarchy, *_ = running_system
        # the root coordinator coordinates at several levels
        root_coord = hierarchy.root.coordinator
        report = fail_node(hierarchy, root_coord)
        assert len(report.coordinator_roles) >= 1
        assert root_coord not in hierarchy.root.subtree_nodes()
        hierarchy.validate()

    def test_identifies_affected_queries(self, running_system):
        net, hierarchy, workload, rates, engine, optimizer = running_system
        # pick a node hosting at least one operator
        victim = next(
            node for (_, node) in engine.state.operators()
        )
        report = fail_node(hierarchy, victim, engine=engine)
        assert report.affected_queries


class TestFailureReportShape:
    def test_defaults_are_empty(self):
        report = FailureReport(node=7)
        assert report.coordinator_roles == []
        assert report.new_coordinators == {}
        assert report.affected_queries == []

    def test_singleton_cluster_has_no_backup(self, running_system):
        net, hierarchy, *_ = running_system
        singles = [c for c in hierarchy.levels[0] if c.size == 1]
        for cluster in singles:
            assert backup_coordinator(cluster, net.cost_matrix()) is None


def _running_service(**layers):
    net = repro.transit_stub_by_size(32, seed=51)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=6, joins_per_query=(1, 3)),
        seed=52,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = repro.TopDownOptimizer(hierarchy, rates, ads=ads)
    service = repro.StreamQueryService(
        optimizer, net, rates, hierarchy=hierarchy, ads=ads,
        admission=repro.AdmissionController(budget=16), **layers,
    )
    for query in workload:
        assert service.submit(query).admitted
    return service


class TestServiceRetireReadmit:
    """The lifecycle service's retire/re-admit path rides on fail_node."""

    @pytest.fixture()
    def service(self):
        return _running_service()

    def test_failure_retires_and_readmits(self, service):
        protected = {spec.source for spec in service.rates.streams.values()}
        protected |= {d.query.sink for d in service.engine.state.deployments}
        victim = next(
            (n for (_, n) in service.engine.state.operators() if n not in protected),
            None,
        )
        if victim is None:
            pytest.skip("every operator co-located with a source/sink in this seed")
        before = set(service.live_queries)
        report = service.handle_node_failure(victim)
        assert report.retired
        assert set(report.resubmitted) | set(report.lost) == set(report.retired)
        assert not report.lost  # victim excluded sources and sinks
        # re-admitted queries are live again; nothing else was touched
        assert set(service.live_queries) == before
        # no surviving operator sits on the failed node
        assert all(node != victim for (_, node) in service.engine.state.operators())
        # cached placements from before the failure are unusable now
        assert service.topology_epoch == 1

    def test_failure_of_sink_marks_query_lost(self, service):
        sinks = {d.query.name: d.query.sink for d in service.engine.state.deployments}
        # fail a node that is some query's sink *and* hosts one of its operators
        victim = None
        for deployment in service.engine.state.deployments:
            placements = set(deployment.operator_nodes.values())
            if deployment.query.sink in placements:
                victim = deployment.query.sink
                break
        if victim is None:
            pytest.skip("no query has an operator at its own sink in this seed")
        report = service.handle_node_failure(victim)
        lost_sinks = {name for name, sink in sinks.items() if sink == victim}
        assert lost_sinks & set(report.lost) == lost_sinks & set(report.retired)

    def test_failure_of_a_sink_without_operators_loses_its_query(self):
        # q4 sinks at node 6 and places no operator there: its only tie to
        # the node is the endpoint.  Left live, the next adaptive tick
        # would re-plan it toward a sink the hierarchy no longer has.
        service = _running_service(adaptivity=AdaptivityConfig())
        q4 = service.engine.state.deployment("q4")
        assert q4.query.sink == 6 and 6 not in q4.operator_nodes.values()

        report = service.handle_node_failure(6)
        assert report.retired == report.lost == ["q4"]
        assert "q4" not in service.live_queries
        service.tick()  # nothing live is anchored at the dead node

    def test_readmitted_queries_keep_remaining_lifetime(self, service):
        # find a live query with an operator on a non-source/sink node,
        # give it a finite lifetime, then fail that node
        protected = {spec.source for spec in service.rates.streams.values()}
        protected |= {d.query.sink for d in service.engine.state.deployments}
        name = victim = None
        for deployment in service.engine.state.deployments:
            candidate = next(
                (n for n in deployment.operator_nodes.values() if n not in protected),
                None,
            )
            if candidate is not None:
                name, victim = deployment.query.name, candidate
                break
        if victim is None:
            pytest.skip("every operator co-located with a source/sink in this seed")
        service._set_expiry(name, service.clock + 10.0)
        report = service.handle_node_failure(victim)
        assert name in report.resubmitted
        assert name in service._expiry
        assert service._expiry[name] <= service.clock + 10.0
