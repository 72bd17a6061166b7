"""Tests for local-search placement refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.random_placement import RandomPlacement
from repro.core.bottom_up import BottomUpOptimizer
from repro.core.cost import RateModel, deployment_cost
from repro.core.placement import optimal_tree_placement
from repro.core.refinement import refine_placement
from repro.hierarchy import build_hierarchy
from repro.network.topology import random_geometric
from repro.query.deployment import DeploymentState

from tests.conftest import make_catalog, make_query


def _instance(seed, nodes=20, streams=5):
    net = random_geometric(nodes, seed=seed % 5)
    names, specs, sel = make_catalog(net, streams, seed)
    rates = RateModel(specs)
    return net, names, sel, rates


class TestRefinement:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_never_worse(self, seed):
        net, names, sel, rates = _instance(seed)
        rng = np.random.default_rng(seed)
        q = make_query("q", names, sel, net, rng)
        d = RandomPlacement(net, rates, seed=seed).plan(q)
        costs = net.cost_matrix()
        refined, moves = refine_placement(d, costs, rates)
        assert deployment_cost(refined, costs, rates) <= deployment_cost(d, costs, rates) + 1e-9

    def test_unrestricted_refinement_reaches_tree_optimum(self):
        """Full-candidate hill climbing on a tree converges to the DP
        optimum for that tree (the placement objective is convex-ish in
        the single-operator coordinate sense on trees)."""
        net, names, sel, rates = _instance(7)
        rng = np.random.default_rng(7)
        q = make_query("q", names, sel, net, rng, k=4)
        d = RandomPlacement(net, rates, seed=1).plan(q)
        costs = net.cost_matrix()
        refined, _ = refine_placement(d, costs, rates, max_rounds=100)
        leaf_positions = {
            leaf: [rates.source(leaf.stream)] for leaf in d.plan.leaves()
        }
        dp = optimal_tree_placement(
            d.plan, net.nodes(), costs, leaf_positions,
            rates.flow_rates(q, d.plan), sink=q.sink,
        )
        assert deployment_cost(refined, costs, rates) == pytest.approx(dp.cost, rel=1e-6)

    def test_plan_structure_preserved(self):
        net, names, sel, rates = _instance(3)
        rng = np.random.default_rng(3)
        q = make_query("q", names, sel, net, rng)
        d = RandomPlacement(net, rates, seed=2).plan(q)
        refined, _ = refine_placement(d, net.cost_matrix(), rates)
        assert refined.plan == d.plan
        for leaf in refined.plan.leaves():
            assert refined.placement[leaf] == d.placement[leaf]

    def test_restricted_candidates_respected(self):
        net, names, sel, rates = _instance(4)
        rng = np.random.default_rng(4)
        q = make_query("q", names, sel, net, rng)
        d = RandomPlacement(net, rates, seed=3).plan(q)
        allowed = [0, 1, 2]
        refined, moves = refine_placement(d, net.cost_matrix(), rates, candidates=allowed)
        if moves:
            moved = [
                refined.placement[j]
                for j in refined.plan.joins()
                if refined.placement[j] != d.placement[j]
            ]
            assert all(n in allowed for n in moved)

    def test_improves_bottom_up(self):
        """Refinement closes part of Bottom-Up's placement gap."""
        net, names, sel, rates = _instance(8, nodes=30, streams=6)
        h = build_hierarchy(net, max_cs=4, seed=0)
        rng = np.random.default_rng(8)
        costs = net.cost_matrix()
        total_before = total_after = 0.0
        for i in range(6):
            q = make_query(f"q{i}", names, sel, net, rng)
            d = BottomUpOptimizer(h, rates, reuse=False).plan(q)
            refined, _ = refine_placement(d, costs, rates)
            total_before += deployment_cost(d, costs, rates)
            total_after += deployment_cost(refined, costs, rates)
        assert total_after <= total_before
        assert total_after < total_before * 0.999  # some improvement found

    def test_refined_deployment_deployable(self):
        net, names, sel, rates = _instance(5)
        rng = np.random.default_rng(5)
        q = make_query("q", names, sel, net, rng)
        d = RandomPlacement(net, rates, seed=4).plan(q)
        refined, _ = refine_placement(d, net.cost_matrix(), rates)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        assert state.apply(refined) > 0
        assert refined.stats.get("refinement_moves") is not None
