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

from repro.core.reuse import input_partitions
from repro.obs.tracer import count
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
        self.trees = _count_trees((1 << num_views) - 1, split_ok, count, found)
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


def _count_trees(
    subset: int, split_ok: SplitTest | None, count: dict[int, int], found: dict[int, list]
) -> int:
    """The number of trees over ``subset``, memoized in ``count``;
    ``found`` gets the splits of each mask with two or more leaves."""
    total = count.get(subset)
    if total is not None:
        return total
    anchor = subset & -subset
    rest = subset ^ anchor
    total, splits = 0, found.setdefault(subset, [])
    # Every split is generated once by requiring the anchor on the
    # left; ``(part - rest) & rest`` steps through the sub-masks of
    # ``rest`` in increasing order.
    part = 0
    while part != rest:
        left, right = anchor | part, rest ^ part
        part = (part - rest) & rest
        if split_ok is not None and not split_ok(left, right):
            continue
        if _count_trees(left, split_ok, count, found) and _count_trees(
            right, split_ok, count, found
        ):
            splits.append((left, right))
            total += count[left] * count[right]
    count[subset] = total
    return total


def _build(
    leaves: Sequence[Leaf], children: list[tuple[int, int]], row: int, rows: dict[PlanNode, int]
) -> PlanNode:
    """The tree of ``row``: a leaf row, or the join of its two child rows
    (``children``: the levels' ``(left, right)`` row pairs, in row
    order); ``rows`` gets each subtree's row."""
    if row < len(leaves):
        node: PlanNode = leaves[row]
    else:
        left, right = children[row - len(leaves)]
        node = Join(_build(leaves, children, left, rows), _build(leaves, children, right, rows))
    rows[node] = row
    return node


@lru_cache(maxsize=256)
def join_program(num_views: int, adjacent: tuple[int, ...] | None = None) -> JoinProgram:
    """The program of a predicate-graph *shape* (:func:`view_adjacency`;
    ``None``: every tree, cross products included), built once: which
    query the views belong to is not in the key."""
    return JoinProgram(num_views, None if adjacent is None else _crossing(adjacent))


class Layout:
    """The rows of several programs, stacked for one level pass.

    Every program's leaves come first, in program order, then a block of
    rows per level: level ``k`` of every program that has one, those
    with more levels first (their rows ship onward), those ending there
    after (their rows are roots).  Read-only: :func:`layout` shares them.

    Attributes:
        leaves, rows: Leaf rows; all rows.
        levels: Per level ``(left, right, sizes, keep)``: each row's child
            rows, each split's number of rows, and how many rows (a
            prefix) are not roots.
        splits: Per level, per split in row order, ``(program, left mask,
            right mask)``.
        roots, root_rows: Every root row, program by program, in tree
            order (``root_rows``: as a slice when it can); program ``i``'s
            are ``roots[first_root[i] : first_root[i + 1]]``.
        rate_index: Per row, its index into the rates of, per program,
            each mask of its ``below``, then its root.
    """

    def __init__(self, programs: Sequence[JoinProgram]) -> None:
        self.leaves = row = sum(p.num_views for p in programs)
        starts = np.cumsum([0] + [p.num_views for p in programs])
        # row_of[i][local row]: program i's rows renumbered (its join rows below).
        row_of = [np.arange(len(p.row_mask) + p.trees) + s for p, s in zip(programs, starts)]
        local = [p.num_views for p in programs]
        levels, splits = [], []
        for k in range(max(len(p.levels) for p in programs)):
            ship = [i for i, p in enumerate(programs) if len(p.levels) > k + 1]
            members = ship + [i for i, p in enumerate(programs) if len(p.levels) == k + 1]
            for i in members:
                size = len(programs[i].levels[k][0])
                row_of[i][local[i] : local[i] + size] = np.arange(row, row + size)
                local[i] += size
                row += size
            parts = [(i, row_of[i], programs[i].levels[k]) for i in members]
            levels.append((
                *(np.concatenate([rows[lv[side]] for _, rows, lv in parts]) for side in (0, 1)),
                np.concatenate([lv[3] for *_, lv in parts]),
                sum(len(programs[i].levels[k][0]) for i in ship),
            ))
            splits.append(tuple((i, *split) for i, _, lv in parts for split in lv[2]))
        self.rows, self.levels, self.splits = row, tuple(levels), tuple(splits)
        self.roots = np.concatenate([rows[-p.trees :] for p, rows in zip(programs, row_of)])
        tail = np.arange(row - len(self.roots), row)  # the last rows: a slice, read uncopied
        self.root_rows = slice(tail[0], None) if np.array_equal(self.roots, tail) else self.roots
        self.first_root = np.cumsum([0] + [p.trees for p in programs]).tolist()
        self.rate_index = np.empty(row, dtype=np.intp)
        offset = 0
        for p, rows in zip(programs, row_of):
            self.rate_index[rows[: -p.trees]] = p.row_mask + offset
            offset += len(p.below) + 1
            self.rate_index[rows[-p.trees :]] = offset - 1
        for array in (self.roots, self.rate_index, *(a for lv in levels for a in lv[:3])):
            array.flags.writeable = False
        self._children = [pair for lv in levels for pair in zip(lv[0].tolist(), lv[1].tolist())]

    def tree(self, leaves: Sequence[Leaf], root: int, rows: dict[PlanNode, int]) -> PlanNode:
        """Build root number ``root`` over every program's ``leaves``;
        ``rows`` gets each subtree's row."""
        return _build(leaves, self._children, int(self.roots[root]), rows)


@lru_cache(maxsize=1024)
def layout(programs: tuple[JoinProgram, ...]) -> Layout:
    """The layout of :func:`join_program`'s programs, built once per tuple."""
    return Layout(programs)


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
    count("trees_enumerated", len(trees))
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
    (for every join of a tree, decided per split)."""
    return _crossing(view_adjacency(query, views))


def connected_join_trees(query: Query) -> list[PlanNode]:
    """Bushy trees over the query's base streams with no cross-product
    joins.

    Falls back to *all* trees when the restriction leaves nothing (the
    query allows cross products) -- an optimizer must always have at
    least one candidate plan.
    """
    views = [frozenset((s,)) for s in query.sources]
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
    singletons = [frozenset((stream,)) for stream in sorted(sources)]
    return input_partitions(singletons, set(reusable))


def trees_with_reuse(
    query: Query,
    reusable: Sequence[frozenset[str]],
) -> list[PlanNode]:
    """All candidate trees for ``query``, with reuse leaf alternatives.

    Enumerates every partition of the query's sources into base-stream
    leaves and reusable derived views (from ``reusable``), then every
    bushy tree over each partition.  Cross-product trees are dropped
    unless that would leave no candidates.
    """
    partitions = reuse_partitions(frozenset(query.sources), reusable)
    trees = [
        tree
        for partition in partitions
        for tree in all_join_trees(partition, crossing_splits(query, partition))
    ]
    if trees:
        return trees
    return [tree for partition in partitions for tree in all_join_trees(partition)]
