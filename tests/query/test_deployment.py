"""Tests for Deployment and the reuse-aware DeploymentState accounting."""

import numpy as np
import pytest

from repro.core.cost import RateModel, deployment_cost
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import Filter, StreamSpec


def _manual_deployment(query, tree_nodes):
    """Build the A-B chain deployment with explicit operator nodes."""
    a, b = Leaf.of("A"), Leaf.of("B")
    join = Join(a, b)
    placement = {a: 0, b: 3, join: tree_nodes["join"]}
    return Deployment(query=query, plan=join, placement=placement)


@pytest.fixture()
def ab_query():
    return Query("qab", ["A", "B"], sink=7, predicates=[JoinPredicate("A", "B", 0.01)])


class TestDeploymentValidation:
    def test_missing_placement_rejected(self, ab_query):
        a, b = Leaf.of("A"), Leaf.of("B")
        join = Join(a, b)
        with pytest.raises(ValueError, match="missing a placement"):
            Deployment(query=ab_query, plan=join, placement={a: 0, b: 3})

    def test_wrong_coverage_rejected(self, ab_query):
        a = Leaf.of("A")
        with pytest.raises(ValueError, match="plan covers"):
            Deployment(query=ab_query, plan=a, placement={a: 0})

    def test_operator_nodes_and_reused_leaves(self, ab_query):
        d = _manual_deployment(ab_query, {"join": 2})
        assert list(d.operator_nodes.values()) == [2]
        assert d.reused_leaves() == []


class TestApplyAccounting:
    def test_cost_matches_standalone_formula(self, small_net, abc_rates, abc_query, abc_state):
        a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
        tree = Join(Join(a, b), c)
        inner = tree.left
        placement = {a: 0, b: 3, c: 6, inner: 2, tree: 5}
        d = Deployment(query=abc_query, plan=tree, placement=placement)
        costs = small_net.cost_matrix()
        assert abc_state.apply(d) == pytest.approx(deployment_cost(d, costs, abc_rates))
        assert abc_state.total_cost() == pytest.approx(deployment_cost(d, costs, abc_rates))

    def test_colocated_flows_are_free(self, small_net, abc_rates, ab_query):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        a, b = Leaf.of("A"), Leaf.of("B")
        join = Join(a, b)
        # operator at A's source, sink at the same node as the operator:
        q = Query("q0", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.01)])
        d = Deployment(query=q, plan=join, placement={a: 0, b: 3, join: 0})
        cost = state.apply(d)
        # only the B -> node0 flow is paid
        assert cost == pytest.approx(80.0 * costs[3, 0])

    def test_base_leaf_must_sit_at_source(self, abc_state, ab_query):
        a, b = Leaf.of("A"), Leaf.of("B")
        join = Join(a, b)
        d = Deployment(query=ab_query, plan=join, placement={a: 1, b: 3, join: 2})
        with pytest.raises(ValueError, match="must be placed at its source"):
            abc_state.apply(d)

    def test_double_apply_rejected(self, abc_state, ab_query):
        d = _manual_deployment(ab_query, {"join": 2})
        abc_state.apply(d)
        with pytest.raises(ValueError, match="already deployed"):
            abc_state.apply(d)

    def test_two_queries_pay_independently(self, small_net, abc_rates):
        """Without explicit reuse, identical flows are charged per query."""
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        cost1 = state.apply(_manual_deployment(
            Query("q1", ["A", "B"], sink=7, predicates=[JoinPredicate("A", "B", 0.01)]),
            {"join": 2},
        ))
        cost2 = state.apply(_manual_deployment(
            Query("q2", ["A", "B"], sink=7, predicates=[JoinPredicate("A", "B", 0.01)]),
            {"join": 2},
        ))
        assert cost1 == pytest.approx(cost2)
        assert state.total_cost() == pytest.approx(cost1 + cost2)
        # identical (signature, node) operators merge into one instance
        assert state.num_operators == 1
        assert state.queries_using(
            Query("x", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.01)])
            .view_signature(),
            2,
        ) == {"q1", "q2"}

    def test_filtered_base_stream_becomes_view(self, small_net, abc_rates):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        q = Query(
            "qf",
            ["A", "B"],
            sink=7,
            predicates=[JoinPredicate("A", "B", 0.01)],
            filters=[Filter("A", "A.x > 1", 0.5)],
        )
        a, b = Leaf.of("A"), Leaf.of("B")
        join = Join(a, b)
        d = Deployment(query=q, plan=join, placement={a: 0, b: 3, join: 2})
        cost = state.apply(d)
        # filter halves A's rate before shipping
        expected = (
            50.0 * 0.5 * costs[0, 2]
            + 80.0 * costs[3, 2]
            + abc_rates.rate_for(q, frozenset({"A", "B"})) * costs[2, 7]
        )
        assert cost == pytest.approx(expected)
        # the filtered stream registers as a view operator at the source
        assert state.num_operators == 2


class TestReuseAccounting:
    def _deploy_q1(self, state, abc_rates):
        q1 = Query("q1", ["A", "B"], sink=7, predicates=[JoinPredicate("A", "B", 0.01)])
        d = _manual_deployment(q1, {"join": 2})
        state.apply(d)
        return q1

    def test_reuse_pays_only_shipping(self, small_net, abc_rates):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        q1 = self._deploy_q1(state, abc_rates)
        q2 = Query("q2", ["A", "B"], sink=5, predicates=[JoinPredicate("A", "B", 0.01)])
        reuse_leaf = Leaf.of("A", "B")
        d2 = Deployment(query=q2, plan=reuse_leaf, placement={reuse_leaf: 2})
        cost2 = state.apply(d2)
        rate = abc_rates.rate_for(q2, frozenset({"A", "B"}))
        assert cost2 == pytest.approx(rate * costs[2, 5])

    def test_reuse_of_missing_view_rejected(self, small_net, abc_rates):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        q2 = Query("q2", ["A", "B"], sink=5, predicates=[JoinPredicate("A", "B", 0.01)])
        leaf = Leaf.of("A", "B")
        d = Deployment(query=q2, plan=leaf, placement={leaf: 2})
        with pytest.raises(ValueError, match="no such operator"):
            state.apply(d)

    def test_reuse_inflation_applied(self, small_net, abc_rates):
        costs = small_net.cost_matrix()
        state = DeploymentState(
            costs, abc_rates.rate, abc_rates.source, reuse_inflation=1.5
        )
        q1 = self._deploy_q1(state, abc_rates)
        q2 = Query("q2", ["A", "B"], sink=5, predicates=[JoinPredicate("A", "B", 0.01)])
        leaf = Leaf.of("A", "B")
        cost2 = state.apply(Deployment(query=q2, plan=leaf, placement={leaf: 2}))
        rate = abc_rates.rate_for(q2, frozenset({"A", "B"}))
        assert cost2 == pytest.approx(1.5 * rate * costs[2, 5])

    def test_advertised_views(self, small_net, abc_rates):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        q1 = self._deploy_q1(state, abc_rates)
        views = state.advertised_views()
        sig = q1.view_signature()
        assert views == {sig: {2}}
        assert state.has_view(sig)
        assert state.has_view(sig, 2)
        assert not state.has_view(sig, 3)


class TestUndeploy:
    def test_undeploy_reclaims_cost(self, small_net, abc_rates, ab_query):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        cost = state.apply(_manual_deployment(ab_query, {"join": 2}))
        reclaimed = state.undeploy("qab")
        assert reclaimed == pytest.approx(cost)
        assert state.total_cost() == pytest.approx(0.0)
        assert state.num_operators == 0
        assert state.deployments == []

    def test_undeploy_keeps_shared_operator(self, small_net, abc_rates):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        q1 = Query("q1", ["A", "B"], sink=7, predicates=[JoinPredicate("A", "B", 0.01)])
        state.apply(_manual_deployment(q1, {"join": 2}))
        q2 = Query("q2", ["A", "B"], sink=5, predicates=[JoinPredicate("A", "B", 0.01)])
        leaf = Leaf.of("A", "B")
        state.apply(Deployment(query=q2, plan=leaf, placement={leaf: 2}))
        state.undeploy("q1")
        assert state.num_operators == 1  # q2 still references the view
        state.undeploy("q2")
        assert state.num_operators == 0

    def test_undeploy_unknown_query(self, abc_state):
        with pytest.raises(KeyError):
            abc_state.undeploy("nope")


class TestStateUtilities:
    def test_clone_is_independent(self, small_net, abc_rates, ab_query):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        state.apply(_manual_deployment(ab_query, {"join": 2}))
        clone = state.clone()
        clone.undeploy("qab")
        assert state.total_cost() > 0
        assert clone.total_cost() == 0

    def test_a_clone_prices_without_mutating(self, small_net, abc_rates, ab_query):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        d = _manual_deployment(ab_query, {"join": 2})
        predicted = state.clone().apply(d)
        assert state.total_cost() == 0
        assert state.apply(d) == pytest.approx(predicted)

    def test_recompute_costs_after_network_change(self, small_net, abc_rates, ab_query):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        state.apply(_manual_deployment(ab_query, {"join": 2}))
        before = state.total_cost()
        after = state.recompute_costs(costs * 2.0)
        assert after == pytest.approx(2 * before)

    def test_query_cost_attribution(self, small_net, abc_rates):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        q1 = Query("q1", ["A", "B"], sink=7, predicates=[JoinPredicate("A", "B", 0.01)])
        c1 = state.apply(_manual_deployment(q1, {"join": 2}))
        assert state.query_cost("q1") == pytest.approx(c1)
        assert state.query_cost("ghost") == 0.0

    def test_invalid_inflation(self, small_net, abc_rates):
        with pytest.raises(ValueError):
            DeploymentState(
                small_net.cost_matrix(), abc_rates.rate, abc_rates.source, 0.5
            )


class TestRevisionAndOrigin:
    def test_every_mutator_bumps_the_revision(self, small_net, abc_rates, ab_query):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        sig = ab_query.view_signature()
        mutators = [
            lambda: state.apply(_manual_deployment(ab_query, {"join": 2})),
            lambda: state.recompute_rates(),
            lambda: state.recompute_costs(costs),
            lambda: state.register_external_view(sig, 4, 1.0, "fed"),
            lambda: state.unregister_external_view(sig, 4, "fed"),
            lambda: state.undeploy("qab"),
            lambda: state.restore([], [], []),
        ]
        seen = [state.revision]
        for mutate in mutators:
            mutate()
            assert state.revision > seen[-1]
            seen.append(state.revision)
        # Reads leave it alone.
        state.total_cost(), state.operators(), state.deployments, state.clone()
        assert state.revision == seen[-1]

    def test_origin_is_the_first_installed_join(self, small_net, abc_rates):
        costs = small_net.cost_matrix()
        state = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        q1 = Query("q1", ["A", "B"], sink=7, predicates=[JoinPredicate("A", "B", 0.01)])
        q2 = Query("q2", ["A", "B"], sink=5, predicates=[JoinPredicate("A", "B", 0.01)])
        first = _manual_deployment(q1, {"join": 2})
        state.apply(first)
        state.apply(_manual_deployment(q2, {"join": 2}))
        sig = q1.view_signature()
        assert state.find_reusable(sig, 2).origin == (q1, frozenset("A"), frozenset("B"))
        state.undeploy("q1")  # the record survives for q2, and so does its origin
        assert state.find_reusable(sig, 2).origin[0] is q1
        assert state.clone().find_reusable(sig, 2).origin[0] is q1
        assert state.find_reusable(sig, 3) is None
        state.register_external_view(sig, 4, 1.0, "fed")  # no join installed it
        assert state.find_reusable(sig, 4).origin is None

    def test_restore_replaces_the_state(self, small_net, abc_rates, ab_query):
        costs = small_net.cost_matrix()
        source = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        source.apply(_manual_deployment(ab_query, {"join": 2}))
        target = DeploymentState(costs, abc_rates.rate, abc_rates.source)
        target.restore(
            source.deployments,
            [
                (rec.signature, rec.node, rec.rate, rec.queries, rec.origin)
                for rec in source.operator_records()
            ],
            source.flows(),
        )
        assert target.deployment("qab") is source.deployment("qab")
        assert target.operators() == source.operators()
        assert target.total_cost() == source.total_cost()
        assert target.undeploy("qab") == pytest.approx(source.total_cost())
        assert target.num_operators == 0 and source.num_operators == 1
