"""Tests for the deployment-protocol simulation and the flow engine."""

import numpy as np
import pytest

from repro.core import BottomUpOptimizer, OptimalPlanner, TopDownOptimizer
from repro.hierarchy import build_hierarchy
from repro.network.topology import transit_stub_by_size
from repro.runtime import FlowEngine, simulate_deployment
from repro.workload import WorkloadParams, generate_workload


@pytest.fixture(scope="module")
def env():
    net = transit_stub_by_size(32, seed=2)
    workload = generate_workload(
        net,
        WorkloadParams(num_streams=8, num_queries=12, joins_per_query=(1, 4)),
        seed=3,
    )
    rates = workload.rate_model()
    hierarchy = build_hierarchy(net, max_cs=4, seed=0)
    return net, workload, rates, hierarchy


class TestProtocolSimulation:
    def test_timeline_fields(self, env):
        net, w, rates, h = env
        d = TopDownOptimizer(h, rates).plan(w.queries[0])
        t = simulate_deployment(net, d)
        assert t.duration > 0
        assert t.completed_time >= t.submit_time
        assert t.messages > 0
        assert t.tasks == len(d.stats["task_trace"])
        assert t.operators_deployed >= 1

    def test_bottom_up_faster_on_average(self, env):
        """Figure 10's headline: Bottom-Up deploys faster than Top-Down."""
        net, w, rates, h = env
        td = TopDownOptimizer(h, rates)
        bu = BottomUpOptimizer(h, rates)
        td_time = np.mean([simulate_deployment(net, td.plan(q)).duration for q in w])
        bu_time = np.mean([simulate_deployment(net, bu.plan(q)).duration for q in w])
        assert bu_time < td_time

    def test_top_down_faster_with_larger_clusters(self, env):
        """Figure 10: lower max_cs means more levels and slower TD deploys."""
        net, w, rates, _ = env
        times = {}
        for cs in (4, 8):
            h = build_hierarchy(net, max_cs=cs, seed=0)
            td = TopDownOptimizer(h, rates)
            times[cs] = np.mean(
                [simulate_deployment(net, td.plan(q), seconds_per_plan=1e-6).duration for q in w]
            )
        assert times[8] < times[4]

    def test_compute_scales_with_seconds_per_plan(self, env):
        net, w, rates, h = env
        d = TopDownOptimizer(h, rates).plan(w.queries[1])
        slow = simulate_deployment(net, d, seconds_per_plan=1e-3)
        fast = simulate_deployment(net, d, seconds_per_plan=1e-7)
        assert slow.duration > fast.duration
        assert slow.compute_seconds > fast.compute_seconds

    def test_non_hierarchical_deployment_rejected(self, env):
        net, w, rates, h = env
        d = OptimalPlanner(net, rates).plan(w.queries[0])
        with pytest.raises(ValueError, match="task trace"):
            simulate_deployment(net, d)

    def test_single_source_query_deploys(self, env):
        net, w, rates, h = env
        from repro.query.query import Query

        q = Query("q_single", [list(rates.streams)[0]], sink=5)
        d = BottomUpOptimizer(h, rates).plan(q)
        # single-source plans have no joins; the protocol sim needs a
        # trace, which single-source plans skip -- expect the guard.
        if not d.stats.get("task_trace"):
            with pytest.raises(ValueError):
                simulate_deployment(net, d)


class TestFlowEngine:
    def test_deploy_and_cost(self, env):
        net, w, rates, h = env
        engine = FlowEngine(net, rates)
        opt = TopDownOptimizer(h, rates)
        added = engine.deploy(opt.plan(w.queries[0], engine.state))
        assert added > 0
        assert engine.total_cost() == pytest.approx(added)

    def test_undeploy_returns_to_zero(self, env):
        net, w, rates, h = env
        engine = FlowEngine(net, rates)
        opt = TopDownOptimizer(h, rates)
        engine.deploy(opt.plan(w.queries[0], engine.state))
        engine.undeploy(w.queries[0].name)
        assert engine.total_cost() == pytest.approx(0.0)

    def test_metrics_recorded(self, env):
        net, w, rates, h = env
        engine = FlowEngine(net, rates)
        opt = BottomUpOptimizer(h, rates)
        engine.deploy(opt.plan(w.queries[0], engine.state), time=1.0)
        first = engine.registry.get("runtime_total_cost").value
        engine.deploy(opt.plan(w.queries[1], engine.state), time=2.0)
        assert engine.registry.get("runtime_total_cost").value >= first
        assert engine.registry.get("runtime_total_cost").value == engine.total_cost()
        assert engine.registry.get("runtime_operators").value >= 1
        assert engine.clock == 2.0

    def test_link_loads_match_cost(self, env):
        """Sum of per-link rate x cost must equal the flow-cost total."""
        net, w, rates, h = env
        engine = FlowEngine(net, rates)
        opt = TopDownOptimizer(h, rates)
        for q in w.queries[:4]:
            engine.deploy(opt.plan(q, engine.state))
        link_total = sum(l.rate * l.cost for l in engine.link_loads())
        assert link_total == pytest.approx(engine.total_cost(), rel=1e-6)

    def test_hottest_links_sorted(self, env):
        net, w, rates, h = env
        engine = FlowEngine(net, rates)
        opt = TopDownOptimizer(h, rates)
        for q in w.queries[:4]:
            engine.deploy(opt.plan(q, engine.state))
        hot = engine.hottest_links(3)
        assert len(hot) <= 3
        assert all(hot[i].rate >= hot[i + 1].rate for i in range(len(hot) - 1))

    def test_refresh_network_reprices(self, env):
        net, w, rates, h = env
        net = net.copy()
        engine = FlowEngine(net, rates)
        opt = TopDownOptimizer(build_hierarchy(net, max_cs=4, seed=0), rates)
        engine.deploy(opt.plan(w.queries[0], engine.state))
        before = engine.total_cost()
        for link in net.links():
            net.set_link_cost(*link.endpoints, link.cost * 2.0)
        after = engine.refresh_network()
        assert after >= before  # doubling all links cannot reduce cost

