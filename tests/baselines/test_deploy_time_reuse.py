"""Tests for deploy-time reuse variant generation (phased baselines)."""

import pytest

from repro.baselines import plan_then_deploy
from repro.baselines.plan_then_deploy import deploy_time_reuse_variants
from repro.query.plan import Join, Leaf


def _chain_tree():
    a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
    return Join(Join(a, b), c)


class TestDeployTimeReuseVariants:
    def test_no_reusables_identity(self):
        tree = _chain_tree()
        variants = deploy_time_reuse_variants(tree, {})
        assert variants == [tree]

    def test_original_tree_first(self):
        tree = _chain_tree()
        variants = deploy_time_reuse_variants(tree, {frozenset({"A", "B"}): [5]})
        assert variants[0] == tree

    def test_matching_subtree_collapsed(self):
        tree = _chain_tree()
        variants = deploy_time_reuse_variants(tree, {frozenset({"A", "B"}): [5]})
        assert len(variants) == 2
        collapsed = variants[1]
        leaves = collapsed.leaves()
        assert any(leaf.view == frozenset({"A", "B"}) for leaf in leaves)

    def test_full_tree_collapse(self):
        tree = _chain_tree()
        full = frozenset({"A", "B", "C"})
        variants = deploy_time_reuse_variants(tree, {full: [2]})
        assert any(isinstance(v, Leaf) and v.view == full for v in variants)

    def test_nonmatching_view_ignored(self):
        """Views not aligned with the fixed order's subtrees can't be used
        -- the paper's 'pre-defined join order may prevent reuse'."""
        tree = _chain_tree()  # subtrees: AB, ABC
        variants = deploy_time_reuse_variants(tree, {frozenset({"B", "C"}): [5]})
        assert variants == [tree]

    def test_combination_of_collapses(self):
        a, b, c, d = (Leaf.of(x) for x in "ABCD")
        tree = Join(Join(a, b), Join(c, d))
        reusable = {frozenset({"A", "B"}): [1], frozenset({"C", "D"}): [2]}
        variants = deploy_time_reuse_variants(tree, reusable)
        # identity, collapse-left, collapse-right, collapse-both
        assert len(variants) == 4
        sources = {frozenset(l.view) for v in variants for l in v.leaves()}
        assert frozenset({"A", "B"}) in sources
        assert frozenset({"C", "D"}) in sources

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setattr(plan_then_deploy, "REUSE_VARIANT_CAP", 2)
        a, b, c, d = (Leaf.of(x) for x in "ABCD")
        tree = Join(Join(a, b), Join(c, d))
        reusable = {frozenset({"A", "B"}): [1], frozenset({"C", "D"}): [2],
                    frozenset({"A", "B", "C", "D"}): [3]}
        variants = deploy_time_reuse_variants(tree, reusable)
        assert len(variants) <= 2
