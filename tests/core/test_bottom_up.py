"""Tests for the Bottom-Up hierarchical optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bottom_up import BottomUpOptimizer
from repro.core.cost import RateModel, deployment_cost
from repro.core.exhaustive import OptimalPlanner
from repro.core.top_down import TopDownOptimizer
from repro.hierarchy import build_hierarchy
from repro.network.graph import Network
from repro.network.topology import line, random_geometric, transit_stub_by_size
from repro.query.deployment import DeploymentState
from repro.query.plan import Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec

from tests.conftest import make_catalog, make_query


def _instance(seed, num_nodes=24, num_streams=6, max_cs=4):
    net = random_geometric(num_nodes, seed=seed % 7)
    names, streams, sel = make_catalog(net, num_streams, seed)
    rates = RateModel(streams)
    hierarchy = build_hierarchy(net, max_cs=max_cs, seed=seed)
    return net, names, sel, rates, hierarchy


class TestBasics:
    def test_produces_valid_deployment(self):
        net, names, sel, rates, h = _instance(0)
        rng = np.random.default_rng(0)
        q = make_query("q", names, sel, net, rng, k=4)
        d = BottomUpOptimizer(h, rates).plan(q)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        assert state.apply(d) > 0
        assert d.stats["algorithm"] == "bottom-up"

    def test_single_source_query(self):
        net, names, sel, rates, h = _instance(1)
        q = Query("q1", [names[0]], sink=2)
        d = BottomUpOptimizer(h, rates).plan(q)
        assert isinstance(d.plan, Leaf)

    def test_levels_climb_upward(self):
        net, names, sel, rates, h = _instance(2)
        rng = np.random.default_rng(2)
        q = make_query("q", names, sel, net, rng, k=4)
        d = BottomUpOptimizer(h, rates).plan(q)
        levels = d.stats["climb_levels"]
        assert levels == sorted(levels)
        assert levels[0] == 1

    def test_stops_early_when_sources_are_local(self):
        """Sources co-located with the sink: no climb to the root."""
        net = transit_stub_by_size(64, seed=1)
        h = build_hierarchy(net, max_cs=8, seed=0)
        sink = 10
        cluster = h.leaf_cluster(sink)
        local_nodes = [n for n in cluster.members if n != sink][:2] or cluster.members[:2]
        streams = {
            "A": StreamSpec("A", local_nodes[0], 50.0),
            "B": StreamSpec("B", local_nodes[-1], 50.0),
        }
        rates = RateModel(streams)
        q = Query("q", ["A", "B"], sink=sink, predicates=[JoinPredicate("A", "B", 0.01)])
        d = BottomUpOptimizer(h, rates).plan(q)
        assert d.stats["levels_climbed"] < h.height

    def test_base_leaves_at_sources(self):
        net, names, sel, rates, h = _instance(3)
        rng = np.random.default_rng(3)
        q = make_query("q", names, sel, net, rng, k=5)
        d = BottomUpOptimizer(h, rates).plan(q)
        for leaf in d.plan.leaves():
            if leaf.is_base_stream:
                assert d.placement[leaf] == rates.source(leaf.stream)


class TestOptimalityRelation:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_never_beats_optimal(self, seed):
        net, names, sel, rates, h = _instance(seed)
        rng = np.random.default_rng(seed)
        q = make_query("q", names, sel, net, rng)
        costs = net.cost_matrix()
        bu = BottomUpOptimizer(h, rates, reuse=False).plan(q)
        opt = OptimalPlanner(net, rates, reuse=False).plan(q)
        assert deployment_cost(bu, costs, rates) >= deployment_cost(opt, costs, rates) - 1e-9

    def test_usually_worse_than_top_down(self):
        """Aggregate over queries: TD's global view beats BU (paper Fig 7)."""
        net = transit_stub_by_size(64, seed=1)
        names, streams, sel = make_catalog(net, 8, 3)
        rates = RateModel(streams)
        h = build_hierarchy(net, max_cs=16, seed=0)
        rng = np.random.default_rng(4)
        costs = net.cost_matrix()
        td_total = bu_total = 0.0
        for i in range(10):
            q = make_query(f"q{i}", names, sel, net, rng)
            td_total += deployment_cost(TopDownOptimizer(h, rates, reuse=False).plan(q), costs, rates)
            bu_total += deployment_cost(BottomUpOptimizer(h, rates, reuse=False).plan(q), costs, rates)
        assert bu_total > td_total


class TestPathology:
    def test_remote_high_rate_pathology(self):
        """Paper Section 2.3.2: a high-volume remote stream S_r joined with
        two low-volume local streams.  The overall optimal plan joins S_r
        with S_1 remotely; Bottom-Up instead joins S_1 x S_2 locally and
        ships toward S_r, which is (much) worse here."""
        # Two cheap cliques (local & remote) joined by one expensive link.
        net = Network()
        net.add_nodes(8)
        for grp in ([0, 1, 2, 3], [4, 5, 6, 7]):
            for i in range(4):
                for j in range(i + 1, 4):
                    net.add_link(grp[i], grp[j], cost=1.0)
        net.add_link(3, 4, cost=50.0)
        h = build_hierarchy(net, max_cs=4, seed=0)
        streams = {
            "S1": StreamSpec("S1", 0, 10.0),   # local, low volume
            "S2": StreamSpec("S2", 1, 10.0),   # local, low volume
            "Sr": StreamSpec("Sr", 5, 1000.0), # remote, high volume
        }
        rates = RateModel(streams)
        # S_r x S_1 is very selective: its result is tiny.
        q = Query(
            "q",
            ["S1", "S2", "Sr"],
            sink=2,
            predicates=[
                JoinPredicate("S1", "Sr", 0.00001),
                JoinPredicate("S1", "S2", 0.1),
                JoinPredicate("S2", "Sr", 0.00001),
            ],
        )
        costs = net.cost_matrix()
        bu = BottomUpOptimizer(h, rates, reuse=False).plan(q)
        opt = OptimalPlanner(net, rates, reuse=False).plan(q)
        bu_cost = deployment_cost(bu, costs, rates)
        opt_cost = deployment_cost(opt, costs, rates)
        # The optimal plan joins in the remote cluster first.
        assert opt_cost < bu_cost
        # And Bottom-Up's local-first ordering joined S1 x S2 first.
        first_join = bu.plan.joins()[0]
        assert first_join.sources == frozenset({"S1", "S2"})

    def test_bound_relative_to_same_tree_random_placement(self):
        """Paper: BU beats a random placement of the same join tree."""
        rng = np.random.default_rng(9)
        net, names, sel, rates, h = _instance(11)
        q = make_query("q", names, sel, net, rng, k=4)
        costs = net.cost_matrix()
        bu = BottomUpOptimizer(h, rates, reuse=False).plan(q)
        bu_cost = deployment_cost(bu, costs, rates)
        # average random placement of the same tree
        totals = []
        for _ in range(30):
            placement = dict(bu.placement)
            for join in bu.plan.joins():
                placement[join] = int(rng.integers(0, net.num_nodes))
            from repro.query.deployment import Deployment

            totals.append(
                deployment_cost(
                    Deployment(query=q, plan=bu.plan, placement=placement), costs, rates
                )
            )
        assert bu_cost <= np.mean(totals)


class TestReuse:
    def test_reuses_local_view(self):
        net = line(12)
        streams = {"A": StreamSpec("A", 0, 100.0), "B": StreamSpec("B", 1, 100.0)}
        rates = RateModel(streams)
        h = build_hierarchy(net, max_cs=3, seed=0)
        pred = [JoinPredicate("A", "B", 0.0001)]
        q1 = Query("q1", ["A", "B"], sink=11, predicates=pred)
        q2 = Query("q2", ["A", "B"], sink=10, predicates=pred)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        opt = BottomUpOptimizer(h, rates, reuse=True)
        c1 = state.apply(opt.plan(q1, state))
        d2 = opt.plan(q2, state)
        c2 = state.apply(d2)
        assert d2.reused_leaves()
        assert c2 < 0.2 * c1

    def test_search_space_far_below_exhaustive(self):
        """Paper Fig 9: the hierarchical algorithms cut the search space
        by >= 99% relative to Lemma 1's exhaustive count.

        (The paper additionally reports BU ~45% below TD; in our
        implementation TD fragments operators thinly across members so
        its measured combination count is *smaller* -- an honest
        deviation documented in EXPERIMENTS.md.  BU's operational
        advantage, faster deployment, is reproduced by the protocol
        simulation tests.)"""
        from repro.core.bounds import exhaustive_space

        net = transit_stub_by_size(128, seed=2)
        names, streams, sel = make_catalog(net, 10, 5)
        rates = RateModel(streams)
        h = build_hierarchy(net, max_cs=32, seed=0)
        rng = np.random.default_rng(12)
        td_space = bu_space = 0
        for i in range(6):
            q = make_query(f"q{i}", names, sel, net, rng, k=4)
            td_space += TopDownOptimizer(h, rates).plan(q).stats["plans_examined"]
            bu_space += BottomUpOptimizer(h, rates).plan(q).stats["plans_examined"]
        budget = 6 * exhaustive_space(4, 128)
        assert td_space < 0.01 * budget
        assert bu_space < 0.01 * budget
