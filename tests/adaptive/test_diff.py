"""MigrationDiff minimality on hand-built plans."""

import numpy as np
import pytest

from repro.adaptive.diff import diff_deployments
from repro.core.cost import RateModel
from repro.query.deployment import Deployment
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec


def make_world():
    rates = RateModel(
        {
            "A": StreamSpec("A", 0, rate=100.0),
            "B": StreamSpec("B", 1, rate=40.0),
            "C": StreamSpec("C", 2, rate=10.0),
        }
    )
    query = Query(
        "q",
        ["A", "B", "C"],
        sink=3,
        predicates=[JoinPredicate("A", "B", 0.01), JoinPredicate("B", "C", 0.05)],
    )
    costs = np.array(
        [
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 0.0, 1.0, 2.0],
            [2.0, 1.0, 0.0, 1.0],
            [3.0, 2.0, 1.0, 0.0],
        ]
    )
    return rates, query, costs


def left_deep(query, nodes):
    """(A x B) x C with the two joins at the given nodes."""
    a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
    ab = Join(a, b)
    abc = Join(ab, c)
    placement = {a: 0, b: 1, c: 2, ab: nodes[0], abc: nodes[1]}
    return Deployment(query=query, plan=abc, placement=placement)


class TestDiffMinimality:
    def test_identical_deployments_are_a_noop(self):
        rates, query, _ = make_world()
        old = left_deep(query, (1, 2))
        new = left_deep(query, (1, 2))
        diff = diff_deployments(old, new, rates)
        assert diff.is_noop
        assert len(diff.kept) == 2
        assert diff.moved == [] and diff.added == [] and diff.removed == []

    def test_single_relocation_moves_exactly_one_operator(self):
        rates, query, costs = make_world()
        old = left_deep(query, (1, 2))
        new = left_deep(query, (0, 2))  # only the A*B join moves 1 -> 0
        diff = diff_deployments(old, new, rates, bytes_per_tuple=8.0)
        assert len(diff.moved) == 1
        move = diff.moved[0]
        assert move.signature.sources == frozenset({"A", "B"})
        assert (move.old_node, move.new_node) == (1, 0)
        # the root join stayed put -- it must NOT be touched
        assert [sig.sources for sig, _ in diff.kept] == [frozenset({"A", "B", "C"})]
        # window state: both input windows at the current rates
        window = query.view_signature(frozenset({"A", "B"})).window
        expected_tuples = (rates.rate_for(query, {"A"}) + rates.rate_for(query, {"B"})) * window
        assert move.state_tuples == pytest.approx(expected_tuples)
        assert move.state_bytes == pytest.approx(expected_tuples * 8.0)
        assert diff.transfer_cost(costs) == pytest.approx(
            move.state_bytes * costs[1, 0]
        )

    def test_join_reorder_adds_and_removes(self):
        rates, query, _ = make_world()
        old = left_deep(query, (1, 2))
        a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
        bc = Join(b, c)
        abc = Join(a, bc)
        new = Deployment(
            query=query, plan=abc, placement={a: 0, b: 1, c: 2, bc: 2, abc: 2}
        )
        diff = diff_deployments(old, new, rates)
        assert [sig.sources for sig, _ in diff.removed] == [frozenset({"A", "B"})]
        assert [sig.sources for sig, _ in diff.added] == [frozenset({"B", "C"})]
        # the full join survives at node 2 in both -> kept, not moved
        assert [sig.sources for sig, _ in diff.kept] == [frozenset({"A", "B", "C"})]
        assert not diff.moved

    def test_reused_view_leaves_are_preserved_not_moved(self):
        rates, query, _ = make_world()
        ab_leaf, c = Leaf.of("A", "B"), Leaf.of("C")
        plan = Join(ab_leaf, c)
        old = Deployment(query=query, plan=plan, placement={ab_leaf: 1, c: 2, plan: 2})
        new = Deployment(query=query, plan=plan, placement={ab_leaf: 1, c: 2, plan: 3})
        diff = diff_deployments(old, new, rates)
        # the reused derived stream belongs to its provider, not to us
        assert [sig.sources for sig in diff.reused_kept] == [frozenset({"A", "B"})]
        assert len(diff.moved) == 1  # only our own root join moved
        assert diff.moved[0].signature.sources == frozenset({"A", "B", "C"})

    def test_cross_query_diff_is_rejected(self):
        rates, query, _ = make_world()
        other = Query(
            "other",
            ["A", "B", "C"],
            sink=3,
            predicates=[JoinPredicate("A", "B", 0.01), JoinPredicate("B", "C", 0.05)],
        )
        with pytest.raises(ValueError):
            diff_deployments(left_deep(query, (1, 2)), left_deep(other, (1, 2)), rates)
