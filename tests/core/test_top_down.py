"""Tests for the Top-Down hierarchical optimizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import top_down_suboptimality_bound
from repro.core.cost import RateModel, deployment_cost
from repro.core.exhaustive import OptimalPlanner
from repro.core.top_down import TopDownOptimizer
from repro.hierarchy import AdvertisementIndex, build_hierarchy
from repro.network.topology import random_geometric, transit_stub_by_size
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
        opt = TopDownOptimizer(h, rates)
        d = opt.plan(q)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        cost = state.apply(d)  # validates structure and placements
        assert cost > 0
        assert d.stats["algorithm"] == "top-down"
        assert d.stats["plans_examined"] > 0

    def test_single_source_query(self):
        net, names, sel, rates, h = _instance(1)
        q = Query("q1", [names[0]], sink=0)
        d = TopDownOptimizer(h, rates).plan(q)
        assert isinstance(d.plan, Leaf)
        assert d.placement[d.plan] == rates.source(names[0])

    def test_base_leaves_at_sources(self):
        net, names, sel, rates, h = _instance(2)
        rng = np.random.default_rng(2)
        q = make_query("q", names, sel, net, rng, k=5)
        d = TopDownOptimizer(h, rates).plan(q)
        for leaf in d.plan.leaves():
            if leaf.is_base_stream:
                assert d.placement[leaf] == rates.source(leaf.stream)

    def test_operators_on_network_nodes(self):
        net, names, sel, rates, h = _instance(3)
        rng = np.random.default_rng(3)
        q = make_query("q", names, sel, net, rng, k=4)
        d = TopDownOptimizer(h, rates).plan(q)
        for join, node in d.operator_nodes.items():
            assert net.has_node(node)

    def test_unknown_stream_raises(self):
        net, names, sel, rates, h = _instance(4)
        q = Query("q", ["GHOST"], sink=0)
        with pytest.raises(KeyError):
            TopDownOptimizer(h, rates).plan(q)

    def test_levels_visited_start_at_top(self):
        net, names, sel, rates, h = _instance(5)
        rng = np.random.default_rng(5)
        q = make_query("q", names, sel, net, rng, k=3)
        d = TopDownOptimizer(h, rates).plan(q)
        assert d.stats["levels_visited"][0] == h.height


class TestOptimalityRelation:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_never_beats_optimal(self, seed):
        net, names, sel, rates, h = _instance(seed)
        rng = np.random.default_rng(seed)
        q = make_query("q", names, sel, net, rng)
        costs = net.cost_matrix()
        td = TopDownOptimizer(h, rates, reuse=False).plan(q)
        opt = OptimalPlanner(net, rates, reuse=False).plan(q)
        assert deployment_cost(td, costs, rates) >= deployment_cost(opt, costs, rates) - 1e-9

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 400))
    def test_theorem3_suboptimality_bound(self, seed):
        """TD cost <= optimal + sum_e s_e * 2 sum d_i (Theorem 3)."""
        net, names, sel, rates, h = _instance(seed, num_nodes=18, max_cs=4)
        rng = np.random.default_rng(seed + 1)
        q = make_query("q", names, sel, net, rng, k=3)
        costs = net.cost_matrix()
        td = TopDownOptimizer(h, rates, reuse=False).plan(q)
        opt = OptimalPlanner(net, rates, reuse=False).plan(q)
        td_cost = deployment_cost(td, costs, rates)
        opt_cost = deployment_cost(opt, costs, rates)
        edge_rates = [
            rates.rate_for(q, child.sources)
            for join in td.plan.joins()
            for child in (join.left, join.right)
        ] + [rates.rate_for(q, td.plan.sources)]
        bound = top_down_suboptimality_bound(
            edge_rates, h.intra_cluster_costs(), h.height
        )
        assert td_cost <= opt_cost + bound + 1e-6

    def test_close_to_optimal_on_transit_stub(self):
        """Average-case sanity: TD within ~40% of optimal on paper-style nets."""
        net = transit_stub_by_size(64, seed=1)
        names, streams, sel = make_catalog(net, 8, 3)
        rates = RateModel(streams)
        h = build_hierarchy(net, max_cs=16, seed=0)
        rng = np.random.default_rng(4)
        costs = net.cost_matrix()
        td_total = opt_total = 0.0
        for i in range(8):
            q = make_query(f"q{i}", names, sel, net, rng)
            td_total += deployment_cost(TopDownOptimizer(h, rates, reuse=False).plan(q), costs, rates)
            opt_total += deployment_cost(OptimalPlanner(net, rates, reuse=False).plan(q), costs, rates)
        assert td_total <= 1.4 * opt_total


class TestReuse:
    def _shared_pair(self, seed=0):
        net, names, sel, rates, h = _instance(seed)
        rng = np.random.default_rng(seed)
        srcs = sorted(names[:3])
        preds = [
            JoinPredicate(srcs[0], srcs[1], sel[frozenset((srcs[0], srcs[1]))]),
            JoinPredicate(srcs[1], srcs[2], sel[frozenset((srcs[1], srcs[2]))]),
        ]
        q1 = Query("q1", srcs, sink=0, predicates=preds)
        q2 = Query("q2", srcs, sink=1, predicates=preds)
        return net, rates, h, q1, q2

    def test_identical_query_fully_reused(self):
        """A tiny-rate view must be reused rather than recomputed."""
        from tests.network.shapes import line

        net = line(12)
        streams = {"A": StreamSpec("A", 0, 100.0), "B": StreamSpec("B", 1, 100.0)}
        rates = RateModel(streams)
        h = build_hierarchy(net, max_cs=3, seed=0)
        pred = [JoinPredicate("A", "B", 0.0001)]
        q1 = Query("q1", ["A", "B"], sink=11, predicates=pred)
        q2 = Query("q2", ["A", "B"], sink=10, predicates=pred)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        opt = TopDownOptimizer(h, rates, reuse=True)
        c1 = state.apply(opt.plan(q1, state))
        d2 = opt.plan(q2, state)
        c2 = state.apply(d2)
        # Recomputing would ship both 100-rate base streams again; reusing
        # ships only the 1-rate view.
        assert d2.reused_leaves()
        assert c2 < 0.1 * c1

    def test_reuse_flag_off_ignores_ads(self):
        net, rates, h, q1, q2 = self._shared_pair(1)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        opt = TopDownOptimizer(h, rates, reuse=False)
        state.apply(opt.plan(q1, state))
        d2 = opt.plan(q2, state)
        assert not d2.reused_leaves()

    def test_reuse_never_increases_cumulative_cost(self):
        for seed in range(3):
            net, names, sel, rates, h = _instance(seed + 10)
            rng = np.random.default_rng(seed)
            queries = [make_query(f"q{i}", names, sel, net, rng) for i in range(6)]
            totals = {}
            for reuse in (False, True):
                ads = AdvertisementIndex(h)
                for n, s in rates.streams.items():
                    ads.advertise_base(n, s.source)
                opt = TopDownOptimizer(h, rates, ads=ads, reuse=reuse)
                state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
                for q in queries:
                    state.apply(opt.plan(q, state))
                totals[reuse] = state.total_cost()
            assert totals[True] <= totals[False] + 1e-6


class TestSearchSpace:
    def test_counter_below_lemma1_exhaustive(self):
        from repro.core.bounds import exhaustive_space

        net = transit_stub_by_size(128, seed=2)
        names, streams, sel = make_catalog(net, 10, 5)
        rates = RateModel(streams)
        h = build_hierarchy(net, max_cs=32, seed=0)
        rng = np.random.default_rng(6)
        q = make_query("q", names, sel, net, rng, k=4)
        d = TopDownOptimizer(h, rates).plan(q)
        assert d.stats["plans_examined"] < exhaustive_space(4, 128)

    def test_smaller_max_cs_smaller_top_level_space(self):
        net = transit_stub_by_size(64, seed=3)
        names, streams, sel = make_catalog(net, 8, 7)
        rates = RateModel(streams)
        rng = np.random.default_rng(8)
        q = make_query("q", names, sel, net, rng, k=4)
        examined = {}
        for cs in (4, 32):
            h = build_hierarchy(net, max_cs=cs, seed=0)
            d = TopDownOptimizer(h, rates).plan(q)
            examined[cs] = d.stats["plans_examined"]
        assert examined[4] < examined[32]
