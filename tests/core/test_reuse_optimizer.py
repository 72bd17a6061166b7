"""Tests for reuse helpers, the optimizer facade and consolidation."""

import numpy as np
import pytest

from repro.core.consolidation import consolidate, shared_views
from repro.core.cost import RateModel
from repro.core.optimizer import deploy_query, make_optimizer
from repro.core.reuse import input_partitions, resolve_reuse_leaves, substitute_views
from repro.hierarchy import build_hierarchy
from repro.network.topology import line, random_geometric
from repro.query.deployment import DeploymentState
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec

from tests.conftest import make_catalog, make_query


class TestInputPartitions:
    def test_identity_only_without_reusables(self):
        views = [frozenset("A"), frozenset("B")]
        assert input_partitions(views, set()) == [views]

    def test_groups_matching_union(self):
        views = [frozenset("A"), frozenset("B"), frozenset("C")]
        parts = input_partitions(views, {frozenset({"A", "B"})})
        assert len(parts) == 2
        grouped = [p for p in parts if frozenset({"A", "B"}) in p]
        assert grouped

    def test_union_must_match_exactly(self):
        views = [frozenset({"A", "X"}), frozenset("B")]
        # reusable {A, B} doesn't align with input boundaries
        parts = input_partitions(views, {frozenset({"A", "B"})})
        assert parts == [views]

    def test_multi_view_inputs(self):
        views = [frozenset({"A", "B"}), frozenset("C"), frozenset("D")]
        parts = input_partitions(views, {frozenset({"A", "B", "C"})})
        assert len(parts) == 2

    def test_overlapping_inputs_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            input_partitions([frozenset("A"), frozenset("A")], set())


class TestSubstituteViews:
    def test_replaces_placeholder(self):
        a = Leaf.of("A")
        bc = Leaf.of("B", "C")
        outer = Join(a, bc)
        placement = {a: 0, bc: 5, outer: 2}
        b, c = Leaf.of("B"), Leaf.of("C")
        inner = Join(b, c)
        inner_placement = {b: 1, c: 3, inner: 5}
        tree, merged = substitute_views(
            outer, placement, {frozenset({"B", "C"}): (inner, inner_placement)}
        )
        assert tree.sources == frozenset({"A", "B", "C"})
        assert merged[tree] == 2
        leaves = tree.leaves()
        assert {l.label for l in leaves} == {"A", "B", "C"}
        assert merged[[l for l in leaves if l.label == "B"][0]] == 1

    def test_no_replacements_preserves_structure(self):
        a, b = Leaf.of("A"), Leaf.of("B")
        t = Join(a, b)
        placement = {a: 0, b: 1, t: 2}
        tree, merged = substitute_views(t, placement, {})
        assert tree == t
        assert merged[tree] == 2


class TestResolveReuseLeaves:
    def test_picks_cheapest_ad_node(self):
        net = line(6)
        q = Query("q", ["A", "B"], sink=5, predicates=[JoinPredicate("A", "B", 0.01)])
        leaf = Leaf.of("A", "B")
        placement = {leaf: 0}
        sig = q.view_signature()
        resolve_reuse_leaves(q, leaf, placement, {sig: {0, 4}}, net.cost_matrix())
        assert placement[leaf] == 4  # closest to sink 5

    def test_missing_ad_raises(self):
        net = line(3)
        q = Query("q", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.01)])
        leaf = Leaf.of("A", "B")
        with pytest.raises(ValueError, match="not advertised"):
            resolve_reuse_leaves(q, leaf, {leaf: 0}, {}, net.cost_matrix())


class TestMakeOptimizer:
    def _env(self):
        net = random_geometric(16, seed=0)
        names, streams, sel = make_catalog(net, 5, 0)
        rates = RateModel(streams)
        h = build_hierarchy(net, max_cs=4, seed=0)
        return net, rates, h, names, sel

    @pytest.mark.parametrize(
        "name",
        ["top-down", "bottom-up", "optimal", "brute-force", "relaxation",
         "in-network", "plan-then-deploy", "random"],
    )
    def test_builds_every_planner(self, name):
        net, rates, h, names, sel = self._env()
        opt = make_optimizer(name, net, rates, hierarchy=h)
        rng = np.random.default_rng(1)
        q = make_query("q", names, sel, net, rng, k=3)
        d = opt.plan(q, None)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        assert state.apply(d) >= 0

    def test_underscore_alias(self):
        net, rates, h, *_ = self._env()
        assert make_optimizer("top_down", net, rates, hierarchy=h).name == "top-down"

    def test_hierarchy_required(self):
        net, rates, h, *_ = self._env()
        with pytest.raises(ValueError, match="hierarchy"):
            make_optimizer("top-down", net, rates)

    def test_unknown_name(self):
        net, rates, h, *_ = self._env()
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("magic", net, rates)

    def test_deploy_query_helper(self):
        net, rates, h, names, sel = self._env()
        opt = make_optimizer("top-down", net, rates, hierarchy=h)
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        rng = np.random.default_rng(2)
        q = make_query("q", names, sel, net, rng, k=3)
        result = deploy_query(opt, q, state)
        assert result.marginal_cost == pytest.approx(state.total_cost())
        assert state.deployments[0].query.name == "q"


class TestSharedViews:
    def _queries(self):
        preds = {
            ("A", "B"): JoinPredicate("A", "B", 0.01),
            ("B", "C"): JoinPredicate("B", "C", 0.02),
            ("C", "D"): JoinPredicate("C", "D", 0.03),
        }
        q1 = Query("q1", ["A", "B", "C"], sink=0,
                   predicates=[preds[("A", "B")], preds[("B", "C")]])
        q2 = Query("q2", ["B", "C", "D"], sink=1,
                   predicates=[preds[("B", "C")], preds[("C", "D")]])
        return q1, q2

    def test_finds_common_connected_subview(self):
        q1, q2 = self._queries()
        views = shared_views([q1, q2])
        labels = {sv.signature.label() for sv in views}
        assert "B*C" in labels

    def test_mismatched_selectivities_not_shared(self):
        q1, _ = self._queries()
        q3 = Query("q3", ["B", "C"], sink=2, predicates=[JoinPredicate("B", "C", 0.5)])
        views = shared_views([q1, q3])
        assert not views

    def test_benefit_ordering(self):
        q1, q2 = self._queries()
        q3 = Query("q3", ["B", "C"], sink=3, predicates=[JoinPredicate("B", "C", 0.02)])
        views = shared_views([q1, q2, q3])
        assert views[0].benefit >= views[-1].benefit


class TestConsolidate:
    def test_consolidation_not_worse_than_naive(self):
        net = random_geometric(20, seed=3)
        names, streams, sel = make_catalog(net, 6, 3)
        rates = RateModel(streams)
        h = build_hierarchy(net, max_cs=4, seed=3)
        rng = np.random.default_rng(3)
        queries = [make_query(f"q{i}", names, sel, net, rng, k=3) for i in range(6)]

        naive_state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        naive_opt = make_optimizer("top-down", net, rates, hierarchy=h)
        for q in queries:
            deploy_query(naive_opt, q, naive_state)

        cons_state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        cons_opt = make_optimizer("top-down", net, rates, hierarchy=h)
        deployments = consolidate(queries, cons_opt, cons_state)
        assert len(deployments) == len(queries)
        # consolidation must produce a working system; its cost should be
        # in the same ballpark or better (it pre-pays shared views).
        assert cons_state.total_cost() <= naive_state.total_cost() * 1.25

    def test_max_views_cap(self):
        net = random_geometric(16, seed=4)
        names, streams, sel = make_catalog(net, 5, 4)
        rates = RateModel(streams)
        h = build_hierarchy(net, max_cs=4, seed=4)
        rng = np.random.default_rng(4)
        queries = [make_query(f"q{i}", names, sel, net, rng, k=3) for i in range(4)]
        state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        opt = make_optimizer("bottom-up", net, rates, hierarchy=h)
        consolidate(queries, opt, state, max_views=1)
        shared_deployed = [d for d in state.deployments if d.query.name.startswith("__shared__")]
        assert len(shared_deployed) <= 1
