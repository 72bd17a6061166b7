"""Tests for the optimal subset-DP planner vs literal brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import RateModel, deployment_cost
from repro.core.exhaustive import OptimalPlanner
from repro.network.topology import random_geometric
from repro.query.deployment import DeploymentState
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from tests.core.reference_search import BruteForceSearch, tree_is_connected
from tests.network.shapes import line


def _random_instance(seed, num_nodes=7, k=3):
    net = random_geometric(num_nodes, seed=seed % 11)
    rng = np.random.default_rng(seed)
    names = [f"S{i}" for i in range(k)]
    streams = {
        n: StreamSpec(n, int(rng.integers(0, num_nodes)), float(rng.uniform(10, 100)))
        for n in names
    }
    rates = RateModel(streams)
    preds = [
        JoinPredicate(names[i], names[i + 1], float(rng.uniform(0.005, 0.2)))
        for i in range(k - 1)
    ]
    q = Query("q", names, sink=int(rng.integers(0, num_nodes)), predicates=preds)
    return net, rates, q


class TestOptimalPlanner:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 3000))
    def test_matches_brute_force(self, seed):
        net, rates, q = _random_instance(seed)
        costs = net.cost_matrix()
        dp = OptimalPlanner(net, rates).plan(q)
        bf = BruteForceSearch(net, rates).plan(q)
        assert deployment_cost(dp, costs, rates) == pytest.approx(
            deployment_cost(bf, costs, rates)
        )

    def test_matches_brute_force_k4(self):
        net, rates, q = _random_instance(17, num_nodes=6, k=4)
        costs = net.cost_matrix()
        dp = OptimalPlanner(net, rates).plan(q)
        bf = BruteForceSearch(net, rates).plan(q)
        assert deployment_cost(dp, costs, rates) == pytest.approx(
            deployment_cost(bf, costs, rates)
        )

    def test_estimate_matches_realized_cost(self):
        net, rates, q = _random_instance(5)
        dp = OptimalPlanner(net, rates).plan(q)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        assert state.apply(dp) == pytest.approx(dp.stats["cost_estimate"])

    def test_single_source_query(self):
        net, rates, _ = _random_instance(1)
        q = Query("q1", ["S0"], sink=3)
        d = OptimalPlanner(net, rates).plan(q)
        assert isinstance(d.plan, Leaf)
        assert d.placement[d.plan] == rates.source("S0")

    def test_respects_join_connectivity(self):
        net, rates, q = _random_instance(9)
        d = OptimalPlanner(net, rates).plan(q)
        assert tree_is_connected(q, d.plan)

    def test_infeasible_cross_product_only(self):
        net = line(4)
        streams = {"A": StreamSpec("A", 0, 10.0), "B": StreamSpec("B", 3, 10.0)}
        rates = RateModel(streams)
        q = Query("q", ["A", "B"], sink=1, predicates=[], allow_cross_products=True)
        d = OptimalPlanner(net, rates).plan(q)  # cross products allowed: fine
        assert d.plan.sources == frozenset({"A", "B"})

    def test_plans_examined_reports_lemma1(self):
        net, rates, q = _random_instance(2)
        from repro.core.bounds import exhaustive_space

        d = OptimalPlanner(net, rates).plan(q)
        assert d.stats["plans_examined"] == exhaustive_space(3, net.num_nodes)


class TestOptimalReuse:
    def test_reuses_deployed_view_when_cheaper(self):
        net = line(6)
        streams = {"A": StreamSpec("A", 0, 100.0), "B": StreamSpec("B", 1, 100.0)}
        rates = RateModel(streams)
        q1 = Query("q1", ["A", "B"], sink=5, predicates=[JoinPredicate("A", "B", 0.0001)])
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        planner = OptimalPlanner(net, rates, reuse=True)
        state.apply(planner.plan(q1, state))
        q2 = Query("q2", ["A", "B"], sink=4, predicates=[JoinPredicate("A", "B", 0.0001)])
        d2 = planner.plan(q2, state)
        # The tiny-output join already exists; recomputing would ship both
        # full-rate base streams again, so q2 must reuse.
        assert isinstance(d2.plan, Leaf)
        assert not d2.plan.is_base_stream
        cost2 = state.apply(d2)
        rate = rates.rate_for(q2, frozenset({"A", "B"}))
        assert cost2 <= rate * net.cost_matrix().max() + 1e-9

    def test_duplicates_when_reuse_is_far(self):
        # Sink far from the deployed view, sources nearby: duplicate.
        net = line(10)
        streams = {"A": StreamSpec("A", 8, 1.0), "B": StreamSpec("B", 9, 1.0)}
        rates = RateModel(streams)
        q1 = Query("q1", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 1.0)])
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        planner = OptimalPlanner(net, rates, reuse=True)
        d1 = planner.plan(q1, state)
        state.apply(d1)
        q2 = Query("q2", ["A", "B"], sink=9, predicates=[JoinPredicate("A", "B", 1.0)])
        d2 = planner.plan(q2, state)
        cost2 = state.apply(d2)
        # computing next to the sources/sink costs ~2 vs shipping the
        # deployed view from node 0's neighborhood
        assert cost2 <= 3.0

    def test_reuse_disabled_ignores_state(self):
        net = line(6)
        streams = {"A": StreamSpec("A", 0, 100.0), "B": StreamSpec("B", 1, 100.0)}
        rates = RateModel(streams)
        q1 = Query("q1", ["A", "B"], sink=5, predicates=[JoinPredicate("A", "B", 0.0001)])
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        planner = OptimalPlanner(net, rates, reuse=False)
        state.apply(planner.plan(q1, state))
        q2 = Query("q2", ["A", "B"], sink=4, predicates=[JoinPredicate("A", "B", 0.0001)])
        d2 = planner.plan(q2, state)
        assert not isinstance(d2.plan, Leaf)


class TestBruteForce:
    def test_stats_fields(self):
        net, rates, q = _random_instance(3, num_nodes=5)
        d = BruteForceSearch(net, rates).plan(q)
        assert d.stats["trees_examined"] >= 2
        assert d.stats["plans_examined"] >= d.stats["trees_examined"]

    def test_all_trees_mode(self):
        net, rates, q = _random_instance(4, num_nodes=5)
        connected = BruteForceSearch(net, rates, connected_only=True).plan(q)
        everything = BruteForceSearch(net, rates, connected_only=False).plan(q)
        assert everything.stats["trees_examined"] >= connected.stats["trees_examined"]
        costs = net.cost_matrix()
        assert deployment_cost(everything, costs, rates) <= deployment_cost(
            connected, costs, rates
        ) + 1e-9
