"""Bushy join-tree enumeration.

The paper's coordinators "exhaustively construct the possible query
trees" for the (sub)query they plan.  This module enumerates every
unordered bushy binary tree over a set of leaf views, optionally
restricted to *connected* trees (no join is a cross product under the
query's predicate graph), and extends enumeration with reuse: leaves may
be already-deployed derived views covering several base streams.  The
order trees come in is :class:`JoinProgram`'s, which numbers them; the
task search prices the numbers and builds one tree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

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


class JoinProgram:
    """The enumeration as an index program: every tree numbered, none built.

    The trees of a leaf mask are numbered split by split -- splits in
    increasing sub-mask order, the anchor (the mask's lowest leaf) on the
    left -- and within a split ``(L, R)`` tree ``li`` of ``L`` over tree
    ``ri`` of ``R`` comes ``li * count[R] + ri``-th.  Each gets a *row*:
    the leaves first, then every mask with a tree by size then value,
    the full mask's trees last, so one array expression over a size's
    ``left`` / ``right`` rows prices all trees of that size
    (:class:`repro.core.placement.LevelDP`; DESIGN.md section 5).  The
    arrays are read-only: :func:`join_program` shares programs.

    Attributes:
        trees: Trees over the full mask (0: none passes the split test,
            and the program is empty).
        count: Mask -> its number of trees; ``start``: -> its first row.
        blocks: Mask of two or more leaves -> its ``(left mask, right
            mask)`` splits; the masks in row order.
        levels: Per size from 2 up, ``(left, right, splits, sizes)``: the
            child rows of each row of that size; per split, in row order,
            its two masks and its number of rows.
        below: The masks whose rows are below the roots, in row order;
            ``row_mask``: each such row's index in it.
    """

    def __init__(self, num_views: int, split_ok: SplitTest | None = None) -> None:
        if num_views < 1:
            raise ValueError("need at least one view")
        self.num_views = num_views
        self.count = count = {1 << i: 1 for i in range(num_views)}
        found: dict[int, list] = {}

        def trees_over(subset: int) -> int:
            total = count.get(subset)
            if total is not None:
                return total
            anchor = subset & -subset
            rest = subset ^ anchor
            total, splits = 0, found.setdefault(subset, [])
            # Every split is generated once by requiring the anchor on the
            # left; ``(part - rest) & rest`` steps through the sub-masks
            # of ``rest`` in increasing order.
            part = 0
            while part != rest:
                left, right = anchor | part, rest ^ part
                part = (part - rest) & rest
                if split_ok is not None and not split_ok(left, right):
                    continue
                if trees_over(left) and trees_over(right):
                    splits.append((left, right))
                    total += count[left] * count[right]
            count[subset] = total
            return total

        self.trees = trees_over((1 << num_views) - 1)
        # With a tree over the full mask, every mask that has a tree is
        # part of one (contract it to a leaf: the rest still connects).
        self.blocks = blocks = {
            mask: found[mask]
            for mask in sorted(found, key=lambda m: (m.bit_count(), m))
            if self.trees and count[mask]
        }
        self.start = start = {1 << i: i for i in range(num_views)}
        row = num_views
        by_size: dict[int, list] = {}
        for mask, splits in blocks.items():
            start[mask] = row
            row += count[mask]
            by_size.setdefault(mask.bit_count(), []).extend(splits)
        self.levels = tuple(
            (
                np.concatenate(
                    [start[l] + np.repeat(np.arange(count[l]), count[r]) for l, r in splits]
                ),
                np.concatenate(
                    [start[r] + np.tile(np.arange(count[r]), count[l]) for l, r in splits]
                ),
                tuple(splits),
                np.array([count[l] * count[r] for l, r in splits]),
            )
            for splits in by_size.values()
        )
        self.below = below = (*(1 << i for i in range(num_views)), *blocks)[:-1]
        self.row_mask = np.repeat(np.arange(len(below)), [count[mask] for mask in below])
        for array in (self.row_mask, *(a for lv in self.levels for a in (lv[0], lv[1], lv[3]))):
            array.flags.writeable = False
        self._children = [
            pair for lv in self.levels for pair in zip(lv[0].tolist(), lv[1].tolist())
        ]

    def tree(self, leaves: Sequence[Leaf], index: int, rows: dict[PlanNode, int]) -> PlanNode:
        """Build tree ``index`` of the full mask; ``rows`` gets each
        subtree's row."""

        def build(row: int) -> PlanNode:
            if row < len(leaves):
                node: PlanNode = leaves[row]
            else:
                left, right = self._children[row - len(leaves)]
                node = Join(build(left), build(right))
            rows[node] = row
            return node

        return build(self.start[(1 << self.num_views) - 1] + index)


@lru_cache(maxsize=256)
def join_program(num_views: int, adjacent: tuple[int, ...] | None = None) -> JoinProgram:
    """The program of a predicate-graph *shape* (:func:`view_adjacency`;
    ``None``: every tree, cross products included), built once: which
    query the views belong to is not in the key."""
    return JoinProgram(num_views, None if adjacent is None else _crossing(adjacent))


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
    over: dict[int, list[PlanNode]] = {1 << i: [leaf] for i, leaf in enumerate(leaves)}
    for mask, splits in JoinProgram(len(leaves), split_ok).blocks.items():
        over[mask] = [
            Join(l_tree, r_tree)
            for left, right in splits
            for l_tree in over[left]
            for r_tree in over[right]
        ]
    trees = over.get((1 << len(leaves)) - 1, [])
    prof = _perf.active()
    if prof is not None:
        prof.count("trees_enumerated", len(trees))
    return trees


def view_adjacency(
    query: Query, views: Sequence[frozenset[str] | Iterable[str]]
) -> tuple[int, ...]:
    """Per view, the bitmask of the views a predicate links it to."""
    index = {stream: i for i, view in enumerate(views) for stream in view}
    adjacent = [0] * len(views)
    for pred in query.predicates:
        a, b = index.get(pred.left), index.get(pred.right)
        if a is not None and b is not None and a != b:
            adjacent[a] |= 1 << b
            adjacent[b] |= 1 << a
    return tuple(adjacent)


def _crossing(adjacent: Sequence[int]) -> SplitTest:
    # reach[mask]: every view adjacent to some view of ``mask``.
    reach = [0] * (1 << len(adjacent))
    for mask in range(1, len(reach)):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | adjacent[low.bit_length() - 1]
    return lambda left, right: bool(reach[left] & right)


def crossing_splits(
    query: Query, views: Sequence[frozenset[str] | Iterable[str]]
) -> SplitTest:
    """The split test that rejects cross products under ``query``: some
    predicate must have an endpoint in a view on each side
    (:func:`tree_is_connected`'s rule, decided per split)."""
    return _crossing(view_adjacency(query, views))


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
