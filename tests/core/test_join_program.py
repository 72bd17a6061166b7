"""The enumeration as an index program against the literal enumeration.

:class:`repro.core.enumeration.JoinProgram` numbers the trees of every
leaf mask instead of building them; the task search prices the numbers
and builds the winner.  So the numbering must *be* the enumeration:
materialized tree by tree it has to give ``reference_all_join_trees``
(the oracle's own recursion, not the program's) filtered by
``tree_is_connected``, same trees, same order, and the ``left`` /
``right`` rows a level pass reads must be the children the materialized
tree has.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enumeration import (
    all_join_trees,
    count_bushy_trees,
    crossing_splits,
    join_program,
    tree_is_connected,
    view_adjacency,
)
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query

from tests.core.reference_search import reference_all_join_trees


@st.composite
def leaf_sets(draw):
    """1-6 views of one or two streams and a drawn predicate graph over
    them: any subset of the view pairs, so disconnected graphs (whole
    islands, lone views, no predicate at all) come up as often as not."""
    k = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.sampled_from((1, 1, 2)), min_size=k, max_size=k))
    # Names that do not sort in view order, so Join's canonical swap bites.
    order = draw(st.permutations(range(sum(sizes))))
    names = iter(f"S{i:02d}" for i in order)
    views = [tuple(next(names) for _ in range(size)) for size in sizes]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    predicates = [JoinPredicate(views[i][0], views[j][-1], 0.5) for i, j in edges]
    predicates += [JoinPredicate(v[0], v[1], 0.5) for v in views if len(v) == 2]
    query = Query(
        "q", [s for v in views for s in v], sink=0,
        predicates=predicates, allow_cross_products=True,
    )
    return query, [frozenset(v) for v in views]


def _materialized(program, views):
    leaves = [Leaf(view) for view in views]
    return [program.tree(leaves, index, {}) for index in range(program.trees)]


class TestProgramIsTheEnumeration:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(leaf_sets())
    def test_same_trees_in_the_same_order(self, drawn):
        query, views = drawn
        everything = reference_all_join_trees(views)
        assert len(everything) == count_bushy_trees(len(views))
        free = join_program(len(views))
        assert _materialized(free, views) == everything == all_join_trees(views)

        connected = [t for t in everything if tree_is_connected(query, t)]
        pruned = join_program(len(views), view_adjacency(query, views))
        assert pruned.trees == len(connected)
        assert _materialized(pruned, views) == connected
        assert all_join_trees(views, crossing_splits(query, views)) == connected
        # What the planners do with a predicate graph no tree spans.
        if not connected:
            assert _materialized(free, views) == everything

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(leaf_sets())
    def test_level_rows_are_the_children_of_the_tree_built(self, drawn):
        query, views = drawn
        program = join_program(len(views), view_adjacency(query, views))
        if not program.trees:
            program = join_program(len(views))
        leaves = [Leaf(view) for view in views]
        left = np.concatenate([np.zeros(len(views), int), *(lv[0] for lv in program.levels)])
        right = np.concatenate([np.zeros(len(views), int), *(lv[1] for lv in program.levels)])
        assert len(left) == len(views) + sum(program.count[m] for m in program.blocks)
        seen = {}
        for index in range(program.trees):
            rows = {}
            tree = program.tree(leaves, index, rows)
            assert rows[tree] == program.start[(1 << len(views)) - 1] + index
            for sub in tree.subtrees():
                # one row per distinct subtree, whichever tree asks
                assert seen.setdefault(rows[sub], sub) == sub
                if isinstance(sub, Join):
                    children = {int(left[rows[sub]]), int(right[rows[sub]])}
                    assert children == {rows[sub.left], rows[sub.right]}
        # every row is some tree's subtree, and rows below the roots know
        # the mask (so the rate) they belong to
        assert sorted(seen) == list(range(len(left)))
        for row, at in enumerate(program.row_mask.tolist()):
            mask = program.below[at]
            assert seen[row].sources == frozenset().union(
                *(views[i] for i in range(len(views)) if mask >> i & 1)
            )

    def test_a_shape_is_built_once_and_read_only(self):
        chain = (0b10, 0b101, 0b10)
        assert join_program(3, chain) is join_program(3, chain)
        assert join_program(3, chain).trees == 2 and join_program(3).trees == 3
        for level in join_program(3).levels:
            assert not level[0].flags.writeable and not level[1].flags.writeable
