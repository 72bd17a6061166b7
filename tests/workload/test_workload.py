"""Tests for the workload generator and the airline OIS scenario."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import deployment_cost
from repro.core.exhaustive import OptimalPlanner
from repro.network.topology import transit_stub_by_size
from repro.query.deployment import DeploymentState
from repro.workload.generator import Workload, WorkloadParams, generate_workload
from repro.workload.scenarios import airline_ois_scenario


@pytest.fixture(scope="module")
def net():
    return transit_stub_by_size(64, seed=0)


class TestWorkloadParams:
    def test_defaults_match_paper(self):
        p = WorkloadParams()
        assert p.num_streams == 10
        assert p.joins_per_query == (2, 5)

    def test_invalid_streams(self):
        with pytest.raises(ValueError):
            WorkloadParams(num_streams=1)

    def test_invalid_joins_range(self):
        with pytest.raises(ValueError):
            WorkloadParams(joins_per_query=(0, 3))
        with pytest.raises(ValueError):
            WorkloadParams(joins_per_query=(4, 2))

    def test_too_many_joins_for_streams(self):
        with pytest.raises(ValueError, match="distinct streams"):
            WorkloadParams(num_streams=4, joins_per_query=(2, 5))

    def test_bad_style(self):
        with pytest.raises(ValueError, match="predicate style"):
            WorkloadParams(predicate_style="web")


class TestGenerateWorkload:
    def test_basic_shape(self, net):
        w = generate_workload(net, WorkloadParams(num_queries=15), seed=1)
        assert len(w) == 15
        assert len(w.streams) == 10
        assert len(w.selectivities) == 45  # C(10, 2)

    def test_reproducible(self, net):
        w1 = generate_workload(net, seed=7)
        w2 = generate_workload(net, seed=7)
        assert [q.sources for q in w1] == [q.sources for q in w2]
        assert [q.sink for q in w1] == [q.sink for q in w2]
        assert w1.selectivities == w2.selectivities

    def test_joins_within_range(self, net):
        params = WorkloadParams(joins_per_query=(2, 5))
        w = generate_workload(net, params, seed=2)
        for q in w:
            assert 2 <= len(q.sources) - 1 <= 5

    def test_sources_and_sinks_on_network(self, net):
        w = generate_workload(net, seed=3)
        nodes = set(net.nodes())
        for spec in w.streams.values():
            assert spec.source in nodes
        for q in w:
            assert q.sink in nodes

    def test_rates_in_range(self, net):
        params = WorkloadParams(rate_range=(10.0, 20.0))
        w = generate_workload(net, params, seed=4)
        for spec in w.streams.values():
            assert 10.0 <= spec.rate <= 20.0

    def test_selectivities_in_range(self, net):
        w = generate_workload(net, seed=5)
        lo, hi = w.params.selectivity_range
        assert all(lo <= s <= hi for s in w.selectivities.values())

    def test_queries_are_join_connected(self, net):
        for style in ("chain", "star", "clique"):
            w = generate_workload(net, WorkloadParams(predicate_style=style), seed=6)
            for q in w:
                assert q.is_join_connected()

    def test_shared_pairs_share_signatures(self, net):
        """Overlap between queries must create matching sub-signatures."""
        w = generate_workload(net, WorkloadParams(num_streams=5, num_queries=30, joins_per_query=(2, 3)), seed=8)
        found = False
        for i, qa in enumerate(w.queries):
            for qb in w.queries[i + 1 :]:
                common = set(qa.sources) & set(qb.sources)
                for pair in [frozenset(p) for p in zip(sorted(common)[:-1], sorted(common)[1:])]:
                    if qa.is_join_connected(frozenset(pair)) and qb.is_join_connected(frozenset(pair)):
                        if qa.view_signature(pair) == qb.view_signature(pair):
                            found = True
        assert found

    def test_rate_model_roundtrip(self, net):
        w = generate_workload(net, seed=9)
        rm = w.rate_model()
        q = w.queries[0]
        assert rm.rate_for(q, frozenset(q.sources)) > 0

    def test_plannable_by_optimal(self, net):
        w = generate_workload(net, WorkloadParams(num_queries=3), seed=10)
        rm = w.rate_model()
        planner = OptimalPlanner(net, rm)
        state = DeploymentState(net.cost_matrix(), rm.rate, rm.source)
        for q in w:
            state.apply(planner.plan(q, state))
        assert state.total_cost() > 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_always_valid(self, seed, net):
        w = generate_workload(net, WorkloadParams(num_queries=5), seed=seed)
        for q in w:
            assert q.is_join_connected()


class TestAirlineScenario:
    def test_structure(self):
        sc = airline_ois_scenario()
        assert set(sc.streams) == {"FLIGHTS", "WEATHER", "CHECK-INS"}
        assert sc.q1.sources == ("FLIGHTS", "WEATHER", "CHECK-INS")
        assert len(sc.q2.sources) == 2
        assert sc.network.is_connected()

    def test_q1_q2_share_reuse_signature(self):
        sc = airline_ois_scenario()
        sub = {"FLIGHTS", "CHECK-INS"}
        assert sc.q1.view_signature(sub) == sc.q2.view_signature(sub)

    def test_network_aware_ordering_differs_from_volume_ordering(self):
        """The paper's point 1: the network flips the best join order."""
        from repro.baselines.plan_then_deploy import best_static_tree

        sc = airline_ois_scenario()
        static_tree, _ = best_static_tree(sc.q1, sc.rates)
        first_static = static_tree.joins()[0].sources
        opt = OptimalPlanner(sc.network, sc.rates).plan(sc.q1)
        first_joint = opt.plan.joins()[0].sources
        assert first_static == frozenset({"FLIGHTS", "WEATHER"})
        assert first_joint == frozenset({"FLIGHTS", "CHECK-INS"})

    def test_reuse_opportunity_realized(self):
        """The paper's point 2: with Q2 deployed, Q1 reuses its join."""
        sc = airline_ois_scenario()
        rm = sc.rates
        state = DeploymentState(sc.network.cost_matrix(), rm.rate, rm.source)
        planner = OptimalPlanner(sc.network, rm, reuse=True)
        state.apply(planner.plan(sc.q2, state))
        d1 = planner.plan(sc.q1, state)
        assert d1.reused_leaves()
        reused = d1.reused_leaves()[0]
        assert reused.view == frozenset({"FLIGHTS", "CHECK-INS"})


class TestNetworkMonitoringScenario:
    def test_structure(self):
        from repro.workload.scenarios import network_monitoring_scenario

        sc = network_monitoring_scenario()
        assert set(sc.streams) == {"NETFLOW", "SNMP", "ALERTS", "SYSLOG"}
        assert len(sc.queries) == 4
        assert sc.network.is_connected()
        for q in sc.queries:
            assert q.is_join_connected()

    def test_rates_reflect_telemetry_reality(self):
        from repro.workload.scenarios import network_monitoring_scenario

        sc = network_monitoring_scenario()
        assert sc.streams["NETFLOW"].rate > sc.streams["SNMP"].rate
        assert sc.streams["ALERTS"].rate < sc.streams["SYSLOG"].rate

    def test_reuse_chains_across_dashboards(self):
        """The SOC's NETFLOW x ALERTS view serves triage and NOC too."""
        from repro.workload.scenarios import network_monitoring_scenario

        sc = network_monitoring_scenario()
        soc = sc.queries[0]
        for later in sc.queries[2:]:
            sub = frozenset({"NETFLOW", "ALERTS"})
            assert soc.view_signature(sub) == later.view_signature(sub)

    def test_incremental_reuse_saves(self):
        from repro.core.exhaustive import OptimalPlanner
        from repro.query.deployment import DeploymentState
        from repro.workload.scenarios import network_monitoring_scenario

        sc = network_monitoring_scenario()
        totals = {}
        for reuse in (False, True):
            state = DeploymentState(
                sc.network.cost_matrix(), sc.rates.rate, sc.rates.source
            )
            planner = OptimalPlanner(sc.network, sc.rates, reuse=reuse)
            for q in sc.queries:
                state.apply(planner.plan(q, state))
            totals[reuse] = state.total_cost()
        assert totals[True] <= totals[False]

    def test_plannable_by_all_hierarchical_algorithms(self):
        import repro
        from repro.workload.scenarios import network_monitoring_scenario

        sc = network_monitoring_scenario()
        hierarchy = repro.build_hierarchy(sc.network, max_cs=6, seed=0)
        for name in ("top-down", "bottom-up"):
            optimizer = repro.make_optimizer(
                name, sc.network, sc.rates, hierarchy=hierarchy
            )
            state = repro.DeploymentState(
                sc.network.cost_matrix(), sc.rates.rate, sc.rates.source
            )
            for q in sc.queries:
                state.apply(optimizer.plan(q, state))
            assert state.total_cost() > 0
