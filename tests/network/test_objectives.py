"""Tests for objective re-weighting (latency / hop-count optimization)."""

import numpy as np
import pytest

from repro.core.cost import RateModel, deployment_cost
from repro.core.exhaustive import OptimalPlanner
from repro.hierarchy import build_hierarchy
from repro.network.graph import Network
from repro.network.objectives import delay_weighted, hop_weighted
from repro.network.topology import transit_stub_by_size
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec


class TestReweighting:
    def test_delay_weighted_costs_equal_delays(self):
        net = transit_stub_by_size(32, seed=1)
        lat = delay_weighted(net)
        assert np.allclose(lat.cost_matrix(), net.delay_matrix())

    def test_hop_weighted_counts_hops(self):
        net = transit_stub_by_size(32, seed=2)
        hops = hop_weighted(net)
        c = hops.cost_matrix()
        assert np.allclose(c, np.round(c))  # integral hop counts
        assert c[0, 0] == 0

    def test_original_untouched(self):
        net = transit_stub_by_size(32, seed=3)
        before = net.cost_matrix().copy()
        delay_weighted(net)
        assert np.array_equal(net.cost_matrix(), before)


class TestLatencyObjectivePlanning:
    def _net_with_conflicting_metrics(self):
        """cheap-but-slow path vs expensive-but-fast path from 0 to 3."""
        net = Network()
        net.add_nodes(4)
        net.add_link(0, 1, cost=1.0, delay=0.5)   # cheap, slow
        net.add_link(1, 3, cost=1.0, delay=0.5)
        net.add_link(0, 2, cost=50.0, delay=0.001)  # expensive, fast
        net.add_link(2, 3, cost=50.0, delay=0.001)
        return net

    def test_objective_changes_routing_preference(self):
        net = self._net_with_conflicting_metrics()
        lat = delay_weighted(net)
        assert net.cost_matrix()[0, 3] == pytest.approx(2.0)      # via 1
        assert lat.cost_matrix()[0, 3] == pytest.approx(0.002)    # via 2

    def test_planner_follows_objective(self):
        """The same query places differently under cost vs latency."""
        net = transit_stub_by_size(48, seed=4)
        streams = {
            "A": StreamSpec("A", 0, 80.0),
            "B": StreamSpec("B", 20, 80.0),
        }
        rates = RateModel(streams)
        q = Query("q", ["A", "B"], sink=40, predicates=[JoinPredicate("A", "B", 0.01)])
        cost_plan = OptimalPlanner(net, rates).plan(q)
        lat_net = delay_weighted(net)
        lat_plan = OptimalPlanner(lat_net, rates).plan(q)
        # each plan is optimal under its own objective
        assert deployment_cost(cost_plan, net.cost_matrix(), rates) <= deployment_cost(
            lat_plan, net.cost_matrix(), rates
        ) + 1e-9
        assert deployment_cost(lat_plan, lat_net.cost_matrix(), rates) <= deployment_cost(
            cost_plan, lat_net.cost_matrix(), rates
        ) + 1e-9

    def test_hierarchy_clusters_by_delay(self):
        """The paper: response-time metric => cluster by inter-node delay."""
        net = transit_stub_by_size(64, seed=5)
        lat = delay_weighted(net)
        h = build_hierarchy(lat, max_cs=8, seed=0)
        h.validate(full_coverage=True)
        # Theorem 1 holds in the delay metric too
        c = lat.cost_matrix()
        rng = np.random.default_rng(0)
        for u, v in rng.integers(0, 64, size=(40, 2)):
            for level in range(1, h.height + 1):
                est = h.estimated_cost(int(u), int(v), level)
                assert c[u, v] <= est + h.estimate_slack(level) + 1e-9
