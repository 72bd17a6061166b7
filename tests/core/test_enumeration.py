"""Tests for join-tree enumeration and reuse partitioning."""

import pytest

from repro.core.enumeration import (
    all_join_trees,
    connected_join_trees,
    count_bushy_trees,
    reuse_partitions,
    trees_with_reuse,
)
from repro.query.plan import Leaf
from repro.query.query import JoinPredicate, Query
from tests.core.reference_search import tree_is_connected


def _chain_query(names):
    preds = [JoinPredicate(names[i], names[i + 1], 0.1) for i in range(len(names) - 1)]
    return Query("q", names, sink=0, predicates=preds)


class TestCounts:
    @pytest.mark.parametrize("k,expected", [(1, 1), (2, 1), (3, 3), (4, 15), (5, 105), (6, 945)])
    def test_double_factorial(self, k, expected):
        assert count_bushy_trees(k) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            count_bushy_trees(0)


class TestAllJoinTrees:
    def test_counts_match(self):
        for k in range(1, 6):
            views = [frozenset((f"S{i}",)) for i in range(k)]
            trees = all_join_trees(views)
            assert len(trees) == count_bushy_trees(k)

    def test_trees_cover_all_views(self):
        views = [frozenset((c,)) for c in "ABCD"]
        for tree in all_join_trees(views):
            assert tree.sources == frozenset("ABCD")

    def test_no_duplicates(self):
        views = [frozenset((c,)) for c in "ABCDE"]
        trees = all_join_trees(views)
        assert len(set(trees)) == len(trees)

    def test_multi_stream_views_as_leaves(self):
        views = [frozenset({"A", "B"}), frozenset({"C"})]
        trees = all_join_trees(views)
        assert len(trees) == 1
        leaves = trees[0].leaves()
        assert {l.view for l in leaves} == set(views)

    def test_overlapping_views_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            all_join_trees([frozenset({"A", "B"}), frozenset({"B"})])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            all_join_trees([])


class TestConnectivity:
    def test_chain_connected_trees(self):
        q = _chain_query(["A", "B", "C"])
        trees = connected_join_trees(q)
        # (A x B) x C and A x (B x C) are connected; (A x C) x B is not.
        assert len(trees) == 2
        for t in trees:
            assert tree_is_connected(q, t)

    def test_star_predicates_allow_more_trees(self):
        q = Query(
            "q",
            ["HUB", "X", "Y"],
            sink=0,
            predicates=[JoinPredicate("HUB", "X", 0.1), JoinPredicate("HUB", "Y", 0.1)],
        )
        trees = connected_join_trees(q)
        assert len(trees) == 2  # (H x X) x Y and (H x Y) x X; (X x Y) first is a cross product

    def test_clique_allows_all_trees(self):
        q = Query(
            "q",
            ["A", "B", "C"],
            sink=0,
            predicates=[
                JoinPredicate("A", "B", 0.1),
                JoinPredicate("B", "C", 0.1),
                JoinPredicate("A", "C", 0.1),
            ],
        )
        assert len(connected_join_trees(q)) == count_bushy_trees(3)

    def test_fallback_when_nothing_connected(self):
        q = Query(
            "q",
            ["A", "B"],
            sink=0,
            predicates=[],
            allow_cross_products=True,
        )
        trees = connected_join_trees(q)
        assert len(trees) == 1  # falls back to the cross-product tree

    def test_cross_product_detection(self):
        q = _chain_query(["A", "B", "C"])
        from repro.query.plan import Join

        bad = Join(Join(Leaf.of("A"), Leaf.of("C")), Leaf.of("B"))
        assert not tree_is_connected(q, bad)


class TestReusePartitions:
    def test_identity_always_present(self):
        parts = reuse_partitions(frozenset({"A", "B"}), [])
        assert parts == [[frozenset({"A"}), frozenset({"B"})]]

    def test_single_reusable_view(self):
        parts = reuse_partitions(frozenset({"A", "B", "C"}), [frozenset({"A", "B"})])
        as_sets = [sorted(map(sorted, p)) for p in parts]
        assert len(parts) == 2
        assert [["A", "B"], ["C"]] in as_sets

    def test_full_view_reuse(self):
        full = frozenset({"A", "B"})
        parts = reuse_partitions(full, [full])
        assert [full] in parts

    def test_overlapping_views_generate_alternatives(self):
        sources = frozenset({"A", "B", "C"})
        parts = reuse_partitions(sources, [frozenset({"A", "B"}), frozenset({"B", "C"})])
        # identity, {AB}+C, A+{BC}
        assert len(parts) == 3

    def test_irrelevant_views_ignored(self):
        parts = reuse_partitions(frozenset({"A", "B"}), [frozenset({"C", "D"})])
        assert len(parts) == 1


class TestTreesWithReuse:
    def test_reuse_expands_candidates(self):
        q = _chain_query(["A", "B", "C"])
        without = trees_with_reuse(q, [])
        with_reuse = trees_with_reuse(q, [frozenset({"A", "B"})])
        assert len(with_reuse) > len(without)
        reuse_trees = [
            t for t in with_reuse if any(not l.is_base_stream for l in t.leaves())
        ]
        assert reuse_trees

    def test_full_reuse_single_leaf_tree(self):
        q = _chain_query(["A", "B"])
        trees = trees_with_reuse(q, [frozenset({"A", "B"})])
        leaf_trees = [t for t in trees if isinstance(t, Leaf)]
        assert len(leaf_trees) == 1

    def test_connected_only_filters(self):
        q = _chain_query(["A", "B", "C"])
        trees = trees_with_reuse(q, [])
        assert all(tree_is_connected(q, t) for t in trees)
