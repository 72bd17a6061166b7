"""Tests for the tree-placement DP against literal brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import RateModel
from repro.core.placement import (
    brute_force_tree_placement,
    nominal_assignments,
    optimal_tree_placement,
)
from repro.network.topology import line, random_geometric
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec

from tests.core.reference_search import reference_tree_placement


def _setup(seed, num_nodes=7):
    net = random_geometric(num_nodes, seed=seed)
    rng = np.random.default_rng(seed)
    names = ["A", "B", "C"]
    streams = {
        n: StreamSpec(n, int(rng.integers(0, num_nodes)), float(rng.uniform(10, 100)))
        for n in names
    }
    rates = RateModel(streams)
    q = Query(
        "q",
        names,
        sink=int(rng.integers(0, num_nodes)),
        predicates=[
            JoinPredicate("A", "B", float(rng.uniform(0.01, 0.2))),
            JoinPredicate("B", "C", float(rng.uniform(0.01, 0.2))),
        ],
    )
    return net, rates, q


class TestOptimalTreePlacement:
    def test_line_network_hand_checked(self):
        net = line(5)
        streams = {"A": StreamSpec("A", 0, 10.0), "B": StreamSpec("B", 4, 10.0)}
        rates = RateModel(streams)
        q = Query("q", ["A", "B"], sink=2, predicates=[JoinPredicate("A", "B", 0.001)])
        a, b = Leaf.of("A"), Leaf.of("B")
        tree = Join(a, b)
        result = optimal_tree_placement(
            tree,
            net.nodes(),
            net.cost_matrix(),
            {a: [0], b: [4]},
            rates.flow_rates(q, tree),
            sink=2,
        )
        # join output is tiny, so the operator should sit at the sink
        assert result.placement[tree] == 2
        assert result.cost == pytest.approx(10 * 2 + 10 * 2)

    def test_expanding_join_placed_at_sink(self):
        net = line(5)
        streams = {"A": StreamSpec("A", 0, 3.0), "B": StreamSpec("B", 1, 3.0)}
        rates = RateModel(streams)
        q = Query("q", ["A", "B"], sink=4, predicates=[JoinPredicate("A", "B", 1.0)])
        a, b = Leaf.of("A"), Leaf.of("B")
        tree = Join(a, b)
        result = optimal_tree_placement(
            tree, net.nodes(), net.cost_matrix(), {a: [0], b: [1]},
            rates.flow_rates(q, tree), sink=4,
        )
        # the join output (rate 9) dwarfs the inputs (rate 3), so the
        # operator must run at the sink to avoid shipping the big result
        assert result.placement[tree] == 4

    def test_leaf_tree_picks_cheapest_position(self):
        net = line(4)
        streams = {"A": StreamSpec("A", 0, 10.0)}
        rates = RateModel(streams)
        q = Query("q", ["A"], sink=3)
        leaf = Leaf.of("A")
        result = optimal_tree_placement(
            leaf, net.nodes(), net.cost_matrix(), {leaf: [0, 2]},
            rates.flow_rates(q, leaf), sink=3,
        )
        assert result.placement[leaf] == 2  # closer to the sink

    def test_sink_none_skips_delivery(self):
        net = line(3)
        streams = {"A": StreamSpec("A", 0, 5.0), "B": StreamSpec("B", 2, 5.0)}
        rates = RateModel(streams)
        q = Query("q", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.1)])
        a, b = Leaf.of("A"), Leaf.of("B")
        tree = Join(a, b)
        result = optimal_tree_placement(
            tree, net.nodes(), net.cost_matrix(), {a: [0], b: [2]},
            rates.flow_rates(q, tree), sink=None,
        )
        assert result.cost == pytest.approx(min(5 * 2, 5 * 1 + 5 * 1))

    def test_missing_leaf_positions(self):
        net = line(3)
        a, b = Leaf.of("A"), Leaf.of("B")
        tree = Join(a, b)
        with pytest.raises(KeyError, match="no positions"):
            optimal_tree_placement(tree, net.nodes(), net.cost_matrix(), {a: [0]}, {a: 1.0, b: 1.0, tree: 1.0}, sink=None)

    def test_empty_candidates(self):
        a = Leaf.of("A")
        with pytest.raises(ValueError):
            optimal_tree_placement(a, [], np.zeros((2, 2)), {a: [0]}, {a: 1.0}, sink=None)

    def test_empty_leaf_positions(self):
        net = line(3)
        a = Leaf.of("A")
        with pytest.raises(ValueError, match="empty position set"):
            optimal_tree_placement(a, net.nodes(), net.cost_matrix(), {a: []}, {a: 1.0}, sink=None)

    def test_restricted_candidates(self):
        """Operators limited to a cluster; leaves may pin outside it."""
        net = line(6)
        streams = {"A": StreamSpec("A", 0, 10.0), "B": StreamSpec("B", 5, 10.0)}
        rates = RateModel(streams)
        q = Query("q", ["A", "B"], sink=5, predicates=[JoinPredicate("A", "B", 0.001)])
        a, b = Leaf.of("A"), Leaf.of("B")
        tree = Join(a, b)
        result = optimal_tree_placement(
            tree, [1, 2], net.cost_matrix(), {a: [0], b: [5]},
            rates.flow_rates(q, tree), sink=5,
        )
        assert result.placement[tree] in (1, 2)


class TestAgainstBruteForce:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2000))
    def test_dp_equals_brute_force(self, seed):
        net, rates, q = _setup(seed)
        costs = net.cost_matrix()
        a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
        tree = Join(Join(a, b), c)
        leaf_positions = {leaf: [rates.source(leaf.stream)] for leaf in tree.leaves()}
        flow_rates = rates.flow_rates(q, tree)
        dp = optimal_tree_placement(tree, net.nodes(), costs, leaf_positions, flow_rates, sink=q.sink)
        bf = brute_force_tree_placement(tree, net.nodes(), costs, leaf_positions, flow_rates, sink=q.sink)
        assert dp.cost == pytest.approx(bf.cost)

    def test_dp_equals_brute_force_multi_position_leaves(self):
        net, rates, q = _setup(3)
        costs = net.cost_matrix()
        ab = Leaf.of("A", "B")
        c = Leaf.of("C")
        tree = Join(ab, c)
        leaf_positions = {ab: [1, 4], c: [rates.source("C")]}
        flow_rates = rates.flow_rates(q, tree)
        dp = optimal_tree_placement(tree, net.nodes(), costs, leaf_positions, flow_rates, sink=q.sink)
        bf = brute_force_tree_placement(tree, net.nodes(), costs, leaf_positions, flow_rates, sink=q.sink)
        assert dp.cost == pytest.approx(bf.cost)
        assert dp.placement[ab] in (1, 4)


class _ForbidsOneNode:
    """A constraint whose mask forbids one node and whose penalty is NaN
    exactly there: the mask has to have the last word."""

    def __init__(self, node):
        self.node = node

    def binds(self, candidates):
        return True

    def join_mask(self, sub, candidates):
        return candidates != self.node

    def join_penalty(self, sub, candidates):
        return np.where(candidates == self.node, np.nan, 0.25 * len(sub.sources))


class TestAgainstTheOneTreeReference:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2000), forbidden=st.integers(0, 6))
    def test_penalty_then_mask_bit_for_bit(self, seed, forbidden):
        net, rates, q = _setup(seed)
        ab, c = Leaf.of("A", "B"), Leaf.of("C")
        for tree, positions in (
            (Join(Join(Leaf.of("A"), Leaf.of("B")), c),
             {leaf: [rates.source(leaf.stream)] for leaf in map(Leaf.of, "ABC")}),
            (Join(ab, c), {ab: [1, 4, 2], c: [rates.source("C")]}),
        ):
            args = (tree, net.nodes(), net.cost_matrix(), positions, rates.flow_rates(q, tree))
            for sink in (q.sink, None):
                ours = optimal_tree_placement(
                    *args, sink=sink, constraint=_ForbidsOneNode(forbidden)
                )
                ref = reference_tree_placement(
                    *args, sink=sink, constraint=_ForbidsOneNode(forbidden)
                )
                assert np.isfinite(ours.objective)
                assert forbidden not in {ours.placement[j] for j in tree.joins()}
                assert (ours.placement, ours.cost, ours.objective) == (
                    ref.placement, ref.cost, ref.objective
                )
                assert list(ours.placement) == list(ref.placement)  # same key order


class TestNominalAssignments:
    def test_counts(self):
        a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
        tree = Join(Join(a, b), c)
        assert nominal_assignments(tree, 10) == 100  # 2 joins
        assert nominal_assignments(a, 10) == 1  # leaf only
