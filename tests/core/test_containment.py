"""Tests for query-containment reuse (the paper's future-work extension)."""

import numpy as np
import pytest

from repro.core.containment import (
    ContainedReuse,
    best_provider_per_node,
    containment_candidates,
    contains,
)
from repro.core.cost import RateModel
from repro.core.exhaustive import OptimalPlanner
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import Filter, StreamSpec
from tests.network.shapes import line


@pytest.fixture()
def env():
    """Line network with A, B at one end; views deployed mid-line."""
    net = line(10)
    streams = {"A": StreamSpec("A", 0, 100.0), "B": StreamSpec("B", 1, 100.0)}
    rates = RateModel(streams)
    state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
    return net, streams, rates, state


def _deploy_unfiltered_view(state, node=5, sel=0.001):
    """Deploy A x B (no filters) at the given node."""
    q = Query("q_base", ["A", "B"], sink=9, predicates=[JoinPredicate("A", "B", sel)])
    a, b = Leaf.of("A"), Leaf.of("B")
    join = Join(a, b)
    state.apply(Deployment(query=q, plan=join, placement={a: 0, b: 1, join: node}))
    return q


def _filtered_query(name, sink, sel=0.001, fsel=0.1):
    return Query(
        name,
        ["A", "B"],
        sink=sink,
        predicates=[JoinPredicate("A", "B", sel)],
        filters=[Filter("A", "A.v > 7", fsel)],
    )


class TestContains:
    def test_exact_signature_contains_itself(self):
        q = _filtered_query("q", 0)
        sig = q.view_signature()
        assert contains(sig, sig)

    def test_fewer_filters_contains_more(self):
        unfiltered = Query(
            "u", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.001)]
        ).view_signature()
        filtered = _filtered_query("f", 0).view_signature()
        assert contains(unfiltered, filtered)
        assert not contains(filtered, unfiltered)

    def test_different_predicates_not_contained(self):
        a = Query("a", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.5)])
        b = Query("b", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.1)])
        assert not contains(a.view_signature(), b.view_signature())

    def test_different_sources_not_contained(self):
        a = Query("a", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.5)])
        sig_a = a.view_signature()
        sig_sub = a.view_signature({"A"})
        assert not contains(sig_a, sig_sub)


class TestCandidates:
    def test_finds_containing_view(self, env):
        net, streams, rates, state = env
        _deploy_unfiltered_view(state)
        q = _filtered_query("q2", 9)
        cands = containment_candidates(q, frozenset({"A", "B"}), state, rates)
        assert len(cands) == 1
        cand = cands[0]
        assert not cand.exact
        assert cand.nodes == (5,)
        assert len(cand.missing_filters) == 1
        # provider ships at the unfiltered (larger) rate
        assert cand.ship_rate > rates.rate_for(q, frozenset({"A", "B"}))

    def test_exact_match_sorts_first(self, env):
        net, streams, rates, state = env
        _deploy_unfiltered_view(state, node=5)
        q = _filtered_query("q2", 9)
        # also deploy the exact filtered view elsewhere
        a, b = Leaf.of("A"), Leaf.of("B")
        join = Join(a, b)
        exact_q = _filtered_query("q_exact", 8)
        state.apply(Deployment(query=exact_q, plan=join, placement={a: 0, b: 1, join: 3}))
        cands = containment_candidates(q, frozenset({"A", "B"}), state, rates)
        assert len(cands) == 2
        assert cands[0].exact
        assert not cands[1].exact

    def test_no_candidates_for_unrelated_view(self, env):
        net, streams, rates, state = env
        _deploy_unfiltered_view(state, sel=0.5)  # different selectivity
        q = _filtered_query("q2", 9, sel=0.001)
        assert containment_candidates(q, frozenset({"A", "B"}), state, rates) == []

    def test_best_provider_per_node(self):
        from repro.query.query import ViewSignature

        sig = ViewSignature(frozenset({"A", "B"}), frozenset(), frozenset())
        big = ContainedReuse(sig, sig, (3, 4), ship_rate=10.0, missing_filters=frozenset())
        small = ContainedReuse(sig, sig, (4,), ship_rate=2.0, missing_filters=frozenset())
        best = best_provider_per_node([big, small])
        assert best[3].ship_rate == 10.0
        assert best[4].ship_rate == 2.0


class TestPlannerIntegration:
    def test_containment_reuse_chosen_when_cheaper(self, env):
        """An unfiltered A x B sits next to the new query's sink; with
        containment the planner ships it instead of recomputing from the
        far-away base streams."""
        net, streams, rates, state = env
        _deploy_unfiltered_view(state, node=8, sel=0.001)
        q = _filtered_query("q2", 9, sel=0.001)
        plain = OptimalPlanner(net, rates, reuse=True).plan(q, state)
        contained = OptimalPlanner(net, rates, reuse=True, containment=True).plan(q, state)
        cost_plain = state.clone().apply(plain)
        cost_contained = state.clone().apply(contained)
        assert contained.reused_leaves(), "containment plan should reuse"
        assert cost_contained < cost_plain

    def test_containment_never_worse_than_exact_reuse(self, env):
        net, streams, rates, state = env
        _deploy_unfiltered_view(state, node=8, sel=0.001)
        for sink in (2, 5, 9):
            q = _filtered_query(f"q_{sink}", sink)
            plain = OptimalPlanner(net, rates, reuse=True).plan(q, state)
            contained = OptimalPlanner(net, rates, reuse=True, containment=True).plan(q, state)
            assert state.clone().apply(contained) <= state.clone().apply(plain) + 1e-9

    def test_state_accounting_ships_provider_rate(self, env):
        net, streams, rates, state = env
        _deploy_unfiltered_view(state, node=8, sel=0.001)
        q = _filtered_query("q2", 9, sel=0.001)
        leaf = Leaf.of("A", "B")
        d = Deployment(query=q, plan=leaf, placement={leaf: 8})
        cost = state.apply(d)
        provider_rate = 100.0 * 100.0 * 0.001  # unfiltered view rate
        assert cost == pytest.approx(provider_rate * net.cost_matrix()[8, 9])

    def test_duplicates_when_provider_too_fat(self, env):
        """If the containing view's rate is huge, recomputing wins."""
        net, streams, rates, state = env
        _deploy_unfiltered_view(state, node=8, sel=1.0)  # rate 10,000
        q = _filtered_query("q2", 9, sel=1.0, fsel=0.0001)
        contained = OptimalPlanner(net, rates, reuse=True, containment=True).plan(q, state)
        assert not contained.reused_leaves()

    def test_undeploy_with_containment_reuse(self, env):
        net, streams, rates, state = env
        _deploy_unfiltered_view(state, node=8, sel=0.001)
        q = _filtered_query("q2", 9, sel=0.001)
        leaf = Leaf.of("A", "B")
        state.apply(Deployment(query=q, plan=leaf, placement={leaf: 8}))
        assert state.num_operators == 1
        state.undeploy("q2")
        assert state.num_operators == 1  # provider still owned by q_base
        state.undeploy("q_base")
        assert state.num_operators == 0
