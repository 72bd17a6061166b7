"""Bushy join-tree enumeration.

The paper's coordinators "exhaustively construct the possible query
trees" for the (sub)query they plan.  This module enumerates every
unordered bushy binary tree over a set of leaf views, optionally
restricted to *connected* trees (no join is a cross product under the
query's predicate graph), and extends enumeration with reuse: leaves may
be already-deployed derived views covering several base streams.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.perf import profiler as _perf
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import Query
from repro.utils import double_factorial_odd


def count_bushy_trees(num_leaves: int) -> int:
    """Number of unordered bushy binary trees over ``num_leaves`` leaves.

    Equals ``(2k - 3)!!``: 1, 1, 3, 15, 105, 945 for k = 1..6.
    """
    if num_leaves < 1:
        raise ValueError("need at least one leaf")
    return double_factorial_odd(num_leaves)


#: Split test of the pruned enumeration: ``(left, right)`` leaf bitmasks
#: (bit ``i`` = the ``i``-th view) -> whether the join may be built.
SplitTest = Callable[[int, int], bool]


def all_join_trees(
    views: Sequence[frozenset[str] | Iterable[str]],
    split_ok: SplitTest | None = None,
) -> list[PlanNode]:
    """All unordered bushy trees whose leaves are the given views.

    Views must be pairwise disjoint stream sets.  The result has exactly
    ``count_bushy_trees(len(views))`` trees (duplicates are impossible
    because :class:`Join` children are canonically ordered).

    With ``split_ok`` only joins whose split passes the test are ever
    built, at any depth: the result is the unrestricted enumeration
    filtered to the trees all of whose joins pass, in the same relative
    order, and may be empty.  Trees share their common subtrees as
    *objects* either way.
    """
    leaves = [Leaf(frozenset(v)) for v in views]
    if not leaves:
        raise ValueError("need at least one view")
    union: set[str] = set()
    for leaf in leaves:
        if union & leaf.view:
            raise ValueError("views must be pairwise disjoint")
        union |= leaf.view
    memo: dict[int, list[PlanNode]] = {1 << i: [leaf] for i, leaf in enumerate(leaves)}
    trees = _trees_over((1 << len(leaves)) - 1, memo, split_ok)
    prof = _perf.active()
    if prof is not None:
        prof.count("trees_enumerated", len(trees))
    return trees


def _trees_over(
    subset: int,
    memo: dict[int, list[PlanNode]],
    split_ok: SplitTest | None,
) -> list[PlanNode]:
    result = memo.get(subset)
    if result is not None:
        return result
    anchor = subset & -subset
    rest = subset ^ anchor
    result = []
    # Every split is generated once by requiring the anchor (the lowest
    # leaf) on the left; ``(part - rest) & rest`` steps through the
    # sub-masks of ``rest`` in increasing order.
    part = 0
    while part != rest:
        left, right = anchor | part, rest ^ part
        part = (part - rest) & rest
        if split_ok is not None and not split_ok(left, right):
            continue
        for l_tree in _trees_over(left, memo, split_ok):
            for r_tree in _trees_over(right, memo, split_ok):
                result.append(Join(l_tree, r_tree))
    memo[subset] = result
    return result


def crossing_splits(
    query: Query, views: Sequence[frozenset[str] | Iterable[str]]
) -> SplitTest:
    """The split test that rejects cross products under ``query``.

    A split passes when at least one of the query's predicates has an
    endpoint in a view on each side -- :func:`tree_is_connected`'s rule,
    decided per split from one adjacency bitmask per view.
    """
    index = {stream: i for i, view in enumerate(views) for stream in view}
    adjacent = [0] * len(views)
    for pred in query.predicates:
        a, b = index.get(pred.left), index.get(pred.right)
        if a is not None and b is not None and a != b:
            adjacent[a] |= 1 << b
            adjacent[b] |= 1 << a
    # reach[mask]: every view adjacent to some view of ``mask``.
    reach = [0] * (1 << len(views))
    for mask in range(1, len(reach)):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | adjacent[low.bit_length() - 1]
    return lambda left, right: bool(reach[left] & right)


def tree_is_connected(query: Query, tree: PlanNode) -> bool:
    """Whether no join in ``tree`` is a cross product under ``query``.

    A join is connected when at least one of the query's predicates
    crosses the split between its children's *base* stream sets.
    """
    for join in tree.joins():
        left, right = join.left.sources, join.right.sources
        crossing = any(
            (p.left in left and p.right in right) or (p.left in right and p.right in left)
            for p in query.predicates
        )
        if not crossing:
            return False
    return True


def connected_join_trees(
    query: Query,
    views: Sequence[frozenset[str] | Iterable[str]] | None = None,
) -> list[PlanNode]:
    """Bushy trees over ``views`` with no cross-product joins.

    ``views`` defaults to the query's base streams as singleton leaves.
    Falls back to *all* trees when the restriction leaves nothing (which
    happens when the views partition the predicate graph badly or when
    the query allows cross products) -- an optimizer must always have at
    least one candidate plan.
    """
    if views is None:
        views = [frozenset((s,)) for s in query.sources]
    else:
        views = [frozenset(v) for v in views]
    return all_join_trees(views, crossing_splits(query, views)) or all_join_trees(views)


def reuse_partitions(
    sources: frozenset[str],
    reusable: Sequence[frozenset[str]],
) -> list[list[frozenset[str]]]:
    """All partitions of ``sources`` into singletons and reusable views.

    Each partition is a candidate leaf set for planning with reuse: a
    block of size one is the base stream; a larger block must appear in
    ``reusable``.  The all-singletons partition (no reuse) is always
    included.  Blocks within a partition are pairwise disjoint by
    construction.
    """
    usable = sorted({v for v in reusable if len(v) > 1 and v <= sources}, key=sorted)
    results: list[list[frozenset[str]]] = []

    def recurse(remaining: frozenset[str], acc: list[frozenset[str]]) -> None:
        if not remaining:
            results.append(list(acc))
            return
        first = min(remaining)
        # Option 1: first stays a singleton leaf.
        acc.append(frozenset((first,)))
        recurse(remaining - {first}, acc)
        acc.pop()
        # Option 2: first is covered by a reusable view.
        for view in usable:
            if first in view and view <= remaining:
                acc.append(view)
                recurse(remaining - view, acc)
                acc.pop()

    recurse(sources, [])
    return results


def trees_with_reuse(
    query: Query,
    reusable: Sequence[frozenset[str]],
    connected_only: bool = True,
) -> list[PlanNode]:
    """All candidate trees for ``query``, with reuse leaf alternatives.

    Enumerates every partition of the query's sources into base-stream
    leaves and reusable derived views (from ``reusable``), then every
    bushy tree over each partition.  With ``connected_only`` (the
    default), cross-product trees are dropped unless that would leave no
    candidates.
    """
    partitions = reuse_partitions(frozenset(query.sources), reusable)
    if connected_only:
        trees = [
            tree
            for partition in partitions
            for tree in all_join_trees(partition, crossing_splits(query, partition))
        ]
        if trees:
            return trees
    return [tree for partition in partitions for tree in all_join_trees(partition)]
