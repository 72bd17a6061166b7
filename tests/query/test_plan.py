"""Tests for plan trees (Leaf/Join) and their canonical structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.plan import Join, Leaf
from repro.utils import double_factorial_odd


class TestLeaf:
    def test_base_stream_leaf(self):
        leaf = Leaf.of("A")
        assert leaf.is_base_stream
        assert leaf.stream == "A"
        assert leaf.sources == frozenset({"A"})
        assert leaf.label == "A"

    def test_view_leaf(self):
        leaf = Leaf.of("B", "A")
        assert not leaf.is_base_stream
        assert leaf.label == "A*B"
        with pytest.raises(ValueError):
            _ = leaf.stream

    def test_empty_view_rejected(self):
        with pytest.raises(ValueError):
            Leaf(frozenset())

    def test_accepts_plain_set(self):
        leaf = Leaf({"A", "B"})
        assert isinstance(leaf.view, frozenset)
        assert hash(leaf)  # hashable after coercion


class TestJoin:
    def test_children_canonical_order(self):
        a, b = Leaf.of("A"), Leaf.of("B")
        j1, j2 = Join(a, b), Join(b, a)
        assert j1 == j2
        assert hash(j1) == hash(j2)
        assert j1.left.sources == frozenset({"A"})

    def test_sources_union(self):
        j = Join(Leaf.of("A"), Join(Leaf.of("B"), Leaf.of("C")))
        assert j.sources == frozenset({"A", "B", "C"})

    def test_overlapping_children_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Join(Leaf.of("A", "B"), Leaf.of("B", "C"))

    def test_structural_equality_of_trees(self):
        t1 = Join(Join(Leaf.of("A"), Leaf.of("B")), Leaf.of("C"))
        t2 = Join(Leaf.of("C"), Join(Leaf.of("B"), Leaf.of("A")))
        assert t1 == t2
        assert t1 is not t2 and hash(t1) == hash(t2)
        assert {t1: "same key"}[t2] == "same key"

    def test_hash_is_computed_once_per_node(self, monkeypatch):
        tree = Join(Join(Leaf.of("A"), Leaf.of("B")), Join(Leaf.of("C"), Leaf.of("D")))
        below: list[object] = []
        for cls in (Leaf, Join):
            original = cls.__hash__
            monkeypatch.setattr(
                cls, "__hash__",
                lambda self, original=original: below.append(self) or original(self),
            )
        assert {tree: 1}[tree] == 1
        assert below == [tree, tree]  # the root's own hash, never its subtree's

    def test_different_shapes_not_equal(self):
        t1 = Join(Join(Leaf.of("A"), Leaf.of("B")), Leaf.of("C"))
        t2 = Join(Join(Leaf.of("A"), Leaf.of("C")), Leaf.of("B"))
        assert t1 != t2


class TestTraversal:
    def _tree(self):
        return Join(Join(Leaf.of("A"), Leaf.of("B")), Join(Leaf.of("C"), Leaf.of("D")))

    def test_leaves_in_order(self):
        assert [l.label for l in self._tree().leaves()] == ["A", "B", "C", "D"]

    def test_joins_postorder(self):
        joins = self._tree().joins()
        assert len(joins) == 3
        assert joins[-1] is self._tree() or joins[-1] == self._tree()
        # children joins come before the root
        assert joins[0].sources < joins[-1].sources

    def test_subtrees_count(self):
        assert len(list(self._tree().subtrees())) == 7  # 4 leaves + 3 joins

    def test_edges(self):
        edges = self._tree().edges()
        assert len(edges) == 6  # 2 per join

    def test_num_joins(self):
        assert self._tree().num_joins == 3
        assert Leaf.of("A").num_joins == 0

    def test_pretty(self):
        t = Join(Leaf.of("A"), Leaf.of("B"))
        assert t.pretty() == "(A x B)"


class TestEnumerationCounts:
    """Tree enumeration must produce exactly (2k-3)!! distinct trees."""

    @settings(max_examples=6, deadline=None)
    @given(k=st.integers(1, 6))
    def test_count_matches_double_factorial(self, k):
        from repro.core.enumeration import all_join_trees

        views = [frozenset((f"S{i}",)) for i in range(k)]
        trees = all_join_trees(views)
        assert len(trees) == double_factorial_odd(k)
        assert len(set(trees)) == len(trees)  # all distinct
