"""Property test: hierarchy invariants survive arbitrary churn.

A seeded random sequence of add/remove/fail operations hammers a built
hierarchy; after every single step :meth:`Hierarchy.invariant_violations`
must report nothing.  This is the structural safety net under the chaos
harness -- any maintenance bug shows up as a readable violation string
with the exact operation sequence that produced it (re-runnable from the
seed).

The same sequence (with snapshot restores mixed in) is the safety net
under the subtrees the hierarchy remembers: after every step
``Hierarchy.subtree`` and ``Hierarchy.member_subtree``, warm from the
step before, must equal a fresh walk of the cluster tree.
"""

import numpy as np
import pytest

import repro
from repro.durability.state import capture_hierarchy, restore_hierarchy
from repro.errors import HierarchyError
from repro.hierarchy.maintenance import add_node, remove_node
from repro.runtime.failover import fail_node


def assert_remembered_subtrees_are_fresh(hierarchy):
    """Every cached subtree equals a walk; asking also warms the cache,
    so the next step's answers are stale unless it dropped them."""
    for level_clusters in hierarchy.levels:
        for cluster in level_clusters:
            walked = frozenset(cluster.subtree_nodes())
            assert hierarchy.subtree(cluster) == walked
            covered: set[int] = set()
            for member in cluster.members:
                child = cluster.children.get(member)
                expected = {member} if child is None else child.subtree_nodes()
                assert hierarchy.member_subtree(cluster, member) == expected
                covered |= expected
            assert covered == walked


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_churn_preserves_invariants(seed):
    net = repro.transit_stub_by_size(32, seed=3)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    assert hierarchy.invariant_violations(full_coverage=True) == []
    assert_remembered_subtrees_are_fresh(hierarchy)
    rng = np.random.default_rng(seed)
    removed: list[int] = []
    history: list[str] = []
    snapshot = None

    for step in range(60):
        present = sorted(hierarchy.root.subtree_nodes())
        if step % 8 == 3:
            snapshot = capture_hierarchy(hierarchy)
        ops = []
        if removed:
            ops.append("add")
        if len(present) > 2:
            ops.extend(["remove", "fail"])
        if snapshot is not None:
            ops.append("restore")
        op = str(rng.choice(ops))
        if op == "restore":
            # What crash recovery does: new cluster objects, same tree.
            restore_hierarchy(hierarchy, snapshot)
            node = -1
            removed = sorted(set(net.nodes()) - hierarchy.root.subtree_nodes())
        elif op == "add":
            node = removed.pop(int(rng.integers(0, len(removed))))
            add_node(hierarchy, node, seed=node)
        elif op == "remove":
            node = int(rng.choice(present))
            remove_node(hierarchy, node)
            removed.append(node)
        else:
            node = int(rng.choice(present))
            fail_node(hierarchy, node)
            removed.append(node)
        history.append(f"{step}: {op}({node})")
        violations = hierarchy.invariant_violations()
        assert violations == [], (
            f"invariants broke after {history[-1]} (seed {seed}):\n"
            + "\n".join(violations)
            + "\nhistory:\n" + "\n".join(history)
        )
        assert_remembered_subtrees_are_fresh(hierarchy)

    # drain back to full membership; coverage must be restorable
    while removed:
        add_node(hierarchy, removed.pop(), seed=1)
        assert hierarchy.invariant_violations() == []
        assert_remembered_subtrees_are_fresh(hierarchy)
    assert hierarchy.invariant_violations(full_coverage=True) == []


def test_last_node_cannot_be_removed():
    net = repro.transit_stub_by_size(16, seed=3)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    nodes = sorted(hierarchy.root.subtree_nodes())
    for node in nodes[:-1]:
        remove_node(hierarchy, node)
        assert hierarchy.invariant_violations() == []
    with pytest.raises(HierarchyError):
        remove_node(hierarchy, nodes[-1])
    # the hierarchy is still intact with its single survivor
    assert hierarchy.root.subtree_nodes() == {nodes[-1]}
    assert hierarchy.invariant_violations() == []


def test_violation_strings_are_actionable():
    net = repro.transit_stub_by_size(16, seed=3)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    # vandalize: duplicate a member into another leaf cluster
    a, b = hierarchy.levels[0][0], hierarchy.levels[0][1]
    stolen = a.members[0]
    b.members.append(stolen)
    violations = hierarchy.invariant_violations()
    assert violations
    assert any(str(stolen) in v for v in violations)
    with pytest.raises(AssertionError):
        hierarchy.validate()
