"""Tests for the plan-then-deploy family of baselines."""

import numpy as np
import pytest

from repro.baselines.in_network import InNetworkPlanner
from repro.baselines.plan_then_deploy import PlanThenDeploy, best_static_tree, reusable_views
from repro.baselines.random_placement import RandomPlacement
from repro.baselines.relaxation import RelaxationPlanner
from repro.core.cost import RateModel, deployment_cost
from repro.core.exhaustive import OptimalPlanner
from repro.core.top_down import TopDownOptimizer
from repro.hierarchy import build_hierarchy
from repro.network.topology import line, random_geometric, transit_stub_by_size
from repro.query.deployment import DeploymentState
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec

from tests.conftest import make_catalog, make_query


def _env(seed=0, nodes=20, streams=6):
    net = random_geometric(nodes, seed=seed % 5)
    names, specs, sel = make_catalog(net, streams, seed)
    return net, names, sel, RateModel(specs)


class TestBestStaticTree:
    def test_prefers_selective_join_first(self):
        streams = {
            "A": StreamSpec("A", 0, 100.0),
            "B": StreamSpec("B", 1, 100.0),
            "C": StreamSpec("C", 2, 100.0),
        }
        rates = RateModel(streams)
        q = Query(
            "q",
            ["A", "B", "C"],
            sink=0,
            predicates=[
                JoinPredicate("A", "B", 0.0001),  # very selective
                JoinPredicate("B", "C", 0.5),     # barely selective
            ],
        )
        tree, _ = best_static_tree(q, rates)
        first = tree.joins()[0]
        assert first.sources == frozenset({"A", "B"})

    def test_single_source(self):
        _, _, _, rates = _env()
        q = Query("q", ["S0"], sink=0)
        tree, n = best_static_tree(q, rates)
        assert isinstance(tree, Leaf)
        assert n == 1

    def test_reuse_view_can_win(self):
        streams = {
            "A": StreamSpec("A", 0, 100.0),
            "B": StreamSpec("B", 1, 100.0),
        }
        rates = RateModel(streams)
        q = Query("q", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.001)])
        tree, _ = best_static_tree(q, rates, {frozenset({"A", "B"}): [3]})
        assert isinstance(tree, Leaf)  # reusing the whole view has no volume

    def test_reusable_views_signature_filtering(self, small_net):
        streams = {"A": StreamSpec("A", 0, 10.0), "B": StreamSpec("B", 1, 10.0)}
        rates = RateModel(streams)
        state = DeploymentState(small_net.cost_matrix(), rates.rate, rates.source)
        q1 = Query("q1", ["A", "B"], sink=2, predicates=[JoinPredicate("A", "B", 0.1)])
        a, b = Leaf.of("A"), Leaf.of("B")
        j = Join(a, b)
        from repro.query.deployment import Deployment

        state.apply(Deployment(query=q1, plan=j, placement={a: 0, b: 1, j: 4}))
        same = Query("q2", ["A", "B"], sink=3, predicates=[JoinPredicate("A", "B", 0.1)])
        different = Query("q3", ["A", "B"], sink=3, predicates=[JoinPredicate("A", "B", 0.9)])
        assert reusable_views(same, state) == {frozenset({"A", "B"}): [4]}
        assert reusable_views(different, state) == {}


class TestPlanThenDeploy:
    def test_never_beats_joint_optimal(self):
        net, names, sel, rates = _env(1)
        costs = net.cost_matrix()
        rng = np.random.default_rng(1)
        for i in range(5):
            q = make_query(f"q{i}", names, sel, net, rng)
            ptd = PlanThenDeploy(net, rates, reuse=False).plan(q)
            opt = OptimalPlanner(net, rates, reuse=False).plan(q)
            assert deployment_cost(ptd, costs, rates) >= deployment_cost(opt, costs, rates) - 1e-9

    def test_placement_is_optimal_for_its_tree(self):
        """The deploy phase must match brute-force placement of the tree."""
        from repro.core.placement import brute_force_tree_placement

        net, names, sel, rates = _env(2, nodes=6, streams=4)
        rng = np.random.default_rng(2)
        q = make_query("q", names, sel, net, rng, k=3)
        d = PlanThenDeploy(net, rates).plan(q)
        flow = rates.flow_rates(q, d.plan)
        leaf_positions = {l: [rates.source(l.stream)] for l in d.plan.leaves()}
        bf = brute_force_tree_placement(
            d.plan, net.nodes(), net.cost_matrix(), leaf_positions, flow, sink=q.sink
        )
        assert deployment_cost(d, net.cost_matrix(), rates) == pytest.approx(
            bf.cost
        )

    def test_single_source(self):
        net, names, sel, rates = _env(3)
        q = Query("q", [names[0]], sink=1)
        d = PlanThenDeploy(net, rates).plan(q)
        assert isinstance(d.plan, Leaf)


class TestRelaxation:
    def test_valid_deployment(self):
        net, names, sel, rates = _env(4)
        rng = np.random.default_rng(4)
        q = make_query("q", names, sel, net, rng)
        d = RelaxationPlanner(net, rates).plan(q)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        assert state.apply(d) > 0
        assert d.stats["iterations"] == 40

    def test_worse_or_equal_to_optimal_placement_of_same_tree(self):
        net, names, sel, rates = _env(5)
        costs = net.cost_matrix()
        rng = np.random.default_rng(5)
        total_rel = total_ptd = 0.0
        for i in range(6):
            q = make_query(f"q{i}", names, sel, net, rng)
            rel = RelaxationPlanner(net, rates, reuse=False).plan(q)
            ptd = PlanThenDeploy(net, rates, reuse=False).plan(q)
            total_rel += deployment_cost(rel, costs, rates)
            total_ptd += deployment_cost(ptd, costs, rates)
        assert total_rel >= total_ptd - 1e-9

    def test_relaxation_beats_random_on_average(self):
        net, names, sel, rates = _env(6)
        costs = net.cost_matrix()
        rng = np.random.default_rng(6)
        rel_total = rnd_total = 0.0
        rnd = RandomPlacement(net, rates, seed=1)
        for i in range(8):
            q = make_query(f"q{i}", names, sel, net, rng)
            rel_total += deployment_cost(RelaxationPlanner(net, rates).plan(q), costs, rates)
            rnd_total += deployment_cost(rnd.plan(q), costs, rates)
        assert rel_total < rnd_total

    def test_invalid_iterations(self):
        net, _, _, rates = _env(7)
        with pytest.raises(ValueError):
            RelaxationPlanner(net, rates, iterations=0)

    def test_pins_reused_leaf_near_sink(self):
        net = line(8)
        streams = {"A": StreamSpec("A", 0, 100.0), "B": StreamSpec("B", 1, 100.0)}
        rates = RateModel(streams)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        pred = [JoinPredicate("A", "B", 0.0001)]
        q1 = Query("q1", ["A", "B"], sink=7, predicates=pred)
        a, b = Leaf.of("A"), Leaf.of("B")
        j = Join(a, b)
        from repro.query.deployment import Deployment

        state.apply(Deployment(query=q1, plan=j, placement={a: 0, b: 1, j: 6}))
        q2 = Query("q2", ["A", "B"], sink=7, predicates=pred)
        d2 = RelaxationPlanner(net, rates, reuse=True).plan(q2, state)
        assert isinstance(d2.plan, Leaf)
        assert d2.placement[d2.plan] == 6


class TestInNetwork:
    def test_valid_deployment(self):
        net, names, sel, rates = _env(8)
        rng = np.random.default_rng(8)
        q = make_query("q", names, sel, net, rng)
        planner = InNetworkPlanner(net, rates, zones=5, seed=0)
        d = planner.plan(q)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        assert state.apply(d) > 0
        assert d.stats["zones"] == 5

    def test_zones_partition_network(self):
        net, _, _, rates = _env(9)
        planner = InNetworkPlanner(net, rates, zones=4, seed=0)
        flat = sorted(n for zone in planner.zone_members for n in zone)
        assert flat == net.nodes()
        assert all(rep in zone for rep, zone in zip(planner.zone_reps, planner.zone_members))

    def test_more_zones_cannot_hurt_much(self):
        """Finer zoning explores more nodes; costs shouldn't explode."""
        net, names, sel, rates = _env(10)
        costs = net.cost_matrix()
        rng = np.random.default_rng(10)
        queries = [make_query(f"q{i}", names, sel, net, rng) for i in range(6)]
        totals = {}
        for zones in (2, 8):
            planner = InNetworkPlanner(net, rates, zones=zones, seed=0)
            totals[zones] = sum(
                deployment_cost(planner.plan(q), costs, rates) for q in queries
            )
        assert totals[8] <= totals[2] * 1.5

    def test_invalid_zones(self):
        net, _, _, rates = _env(11)
        with pytest.raises(ValueError):
            InNetworkPlanner(net, rates, zones=0)


class TestPaperComparisonShape:
    """Aggregate ordering from Figures 2 and 8: joint optimizers beat the
    phased baselines, and optimal placement beats heuristic placement."""

    def test_ordering_on_transit_stub(self):
        net = transit_stub_by_size(64, seed=1)
        names, specs, sel = make_catalog(net, 8, 3)
        rates = RateModel(specs)
        h = build_hierarchy(net, max_cs=16, seed=0)
        costs = net.cost_matrix()
        rng = np.random.default_rng(13)
        queries = [make_query(f"q{i}", names, sel, net, rng) for i in range(10)]
        totals = {}
        planners = {
            "optimal": OptimalPlanner(net, rates, reuse=False),
            "top-down": TopDownOptimizer(h, rates, reuse=False),
            "plan-then-deploy": PlanThenDeploy(net, rates, reuse=False),
            "relaxation": RelaxationPlanner(net, rates, reuse=False),
        }
        for label, planner in planners.items():
            totals[label] = sum(
                deployment_cost(planner.plan(q), costs, rates) for q in queries
            )
        assert totals["optimal"] <= totals["top-down"] + 1e-9
        assert totals["optimal"] <= totals["plan-then-deploy"] + 1e-9
        assert totals["plan-then-deploy"] <= totals["relaxation"] + 1e-9
        # the headline: joint top-down beats the relaxation baseline
        assert totals["top-down"] < totals["relaxation"]
