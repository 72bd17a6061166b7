"""The stacked level pass against the per-alternative oracle.

A task hands :meth:`TreeSearch.add_leaf_sets` all of its leaf-set
alternatives at once.  Lone views and free pairs are priced in scalars,
every other program is stacked into one level pass
(:class:`~repro.core.enumeration.Layout`), and one scan replays the
``_TIE`` rule alternative by alternative, then tree by tree.  The oracle
is ``ReferenceTreeSearch.add_leaf_sets``: one literal per-tree search per
alternative, in order.

Drawn tasks have several alternatives, mixing lone views and
multi-stream reuse views, pairs and 3-6-view programs, predicate graphs
with no connected tree (the cross-product fallback), a view available
nowhere, exact duplicates (which tie), near duplicates read at a twin
node a hair cheaper than their original (which tie within ``_TIE`` but
not exactly), and no, bounding, weighted and non-binding constraints.
``_assert_same_choice`` compares the best tree, placement, cost and
objective bit for bit, the stats, the span counters in value and
first-increment order (with ``test_shared_search``'s ``infeasible_trees``
carve-out), and the work counts.
"""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.cost import RateModel
from repro.core.enumeration import join_program, layout
from repro.core.search import _TIE, TreeSearch
from repro.errors import InfeasiblePlacementError, PlanningError
from repro.obs.tracer import Tracer, tracing
from repro.query.plan import Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec

from tests.core.reference_search import ReferenceTreeSearch
from tests.core.test_shared_search import NUM_NODES, _assert_same_choice, _run, tasks

#: A node no candidate or sink is drawn from: a near duplicate reads a
#: view here instead of at its first position, a hair cheaper.
TWIN = NUM_NODES


@st.composite
def multi_tasks(draw):
    """A task of ``tasks()`` whose leaf sets are many alternatives."""
    task = draw(tasks(leaves=st.integers(3, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    identity = task.leaf_sets[0]
    views = list(identity)

    def positions():
        return tuple(sorted(int(p) for p in rng.choice(NUM_NODES, rng.integers(1, 4), False)))

    def grouping(cuts):
        """The views merged between cuts: a run of one keeps its input,
        a longer run is a reuse view (all merged: a lone view)."""
        out, run = {}, [views[0]]
        for view, cut in zip(views[1:], cuts):
            if cut:
                out[run[0] if len(run) == 1 else frozenset().union(*run)] = None
                run = []
            run.append(view)
        out[run[0] if len(run) == 1 else frozenset().union(*run)] = None
        return {view: identity.get(view) or positions() for view in out}

    alternatives = [identity]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("cuts", "cuts", "lone", "pair")))
        if kind == "lone":
            cuts = [False] * (len(views) - 1)
        elif kind == "pair":
            cuts = [i == draw(st.integers(0, len(views) - 2)) for i in range(len(views) - 1)]
        else:
            cuts = draw(st.lists(st.booleans(), min_size=len(views) - 1, max_size=len(views) - 1))
        alternatives.append(grouping(cuts))

    costs = np.zeros((NUM_NODES + 1, NUM_NODES + 1))
    costs[:NUM_NODES, :NUM_NODES] = task.costs
    if draw(st.booleans()):  # an exact duplicate: ties everywhere
        alternatives.append(dict(draw(st.sampled_from(alternatives))))
    if draw(st.booleans()):  # a near duplicate, within _TIE below its original
        original = draw(st.sampled_from(alternatives))
        view = draw(st.sampled_from(list(original)))
        first = original[view][0]
        rate = task.rates.flow_pricer(task.query)(Leaf(view))
        costs[TWIN] = costs[:, TWIN] = np.maximum(costs[first] - 0.4 * _TIE / rate, 0.0)
        costs[TWIN, TWIN] = 0.0
        near = dict(original)
        near[view] = (TWIN, *original[view][1:])
        alternatives.append(near)
    if draw(st.booleans()):  # a view available nowhere
        nowhere = dict(draw(st.sampled_from(alternatives[1:])))
        nowhere[next(iter(nowhere))] = ()
        alternatives.insert(draw(st.integers(1, len(alternatives))), nowhere)
    task.leaf_sets, task.costs = alternatives, costs
    task.constraint = draw(st.sampled_from((None, "bound", "weighted", "loose")))
    return task


class TestStackedDifferential:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(multi_tasks())
    def test_same_choice_as_one_search_per_alternative(self, task):
        sizes = sorted({len(ls) for ls in task.leaf_sets if all(ls.values())})
        event(f"leaf set sizes: {sizes}")
        event(f"constraint: {task.constraint}")
        best = _assert_same_choice(task)
        if best is not None:
            event(f"winner: {len(best.tree.leaves())} leaves, read at TWIN: "
                  f"{TWIN in best.placement.values()}")


def _two_view_task(sink=3):
    streams = {"A": StreamSpec("A", 0, 5.0), "B": StreamSpec("B", 1, 3.0)}
    query = Query("q", ["A", "B"], sink=sink, predicates=[JoinPredicate("A", "B", 0.5)])
    costs = np.array([[0.0, 2.0, 3.0, 4.0], [2.0, 0.0, 1.0, 2.0],
                      [3.0, 1.0, 0.0, 1.0], [4.0, 2.0, 1.0, 0.0]])
    return SimpleNamespace(
        query=query, rates=RateModel(streams), costs=costs, candidates=[1, 2], sink=sink,
        connected_only=True, constraint=None, capacity_draws=None, background=None,
    )


class TestNearTie:
    def test_the_first_alternative_keeps_a_tie_within_tie(self):
        """The same pair twice, the second read at a twin of node 0 a hair
        cheaper: its objective is smaller, but not by more than ``_TIE``,
        so the first alternative wins -- as one search per alternative
        decides, and unlike a scan by objective."""
        task = _two_view_task()
        a, b = frozenset("A"), frozenset("B")
        costs = np.zeros((5, 5))
        costs[:4, :4] = task.costs
        costs[4] = costs[:, 4] = np.maximum(costs[0] - 0.4 * _TIE / 5.0, 0.0)
        costs[4, 4] = 0.0
        task.costs = costs
        near = {a: (4,), b: (1,)}
        task.leaf_sets = [{a: (0,), b: (1,)}, near]
        twin = _run(TreeSearch, task)[0]
        alone = _run(TreeSearch, SimpleNamespace(**{**vars(task), "leaf_sets": [near]}))[0]
        assert alone.objective < twin.objective < alone.objective + _TIE
        assert twin.placement[Leaf(a)] == 0
        assert _assert_same_choice(task).placement == twin.placement


class TestNoFeasibleAlternative:
    """The search, not the planner, reports a task nothing can serve."""

    @pytest.mark.parametrize("make", (TreeSearch, partial(ReferenceTreeSearch, None)))
    def test_views_available_nowhere_raise_a_planning_error(self, make):
        task = _two_view_task()
        a, b = frozenset("A"), frozenset("B")
        tracer = Tracer()
        with tracing(tracer), tracer.span("task") as span:
            search = make(
                task.query, task.candidates, task.costs,
                task.rates.flow_pricer(task.query), task.sink, True,
                {"plans_examined": 0, "trees_examined": 0}, span,
            )
            with pytest.raises(PlanningError) as raised:
                search.add_leaf_sets([{a: (), b: (1,)}, {a | b: ()}], what="component")
        assert type(raised.value) is PlanningError
        assert str(raised.value) == "no feasible plan for component over [['A'], ['B']]"
        assert span.counters == {
            "leaf_set_alternatives": 2, "reuse_groupings": 1, "infeasible_leaf_sets": 2,
        }

    def test_a_constraint_that_refuses_everything_raises_infeasible(self):
        task = _two_view_task()
        refuse = SimpleNamespace(
            binds=lambda candidates: True,
            join_penalty=lambda join, cand: None,
            join_mask=lambda join, cand: np.zeros(len(cand), dtype=bool),
        )
        tracer = Tracer()
        with tracing(tracer), tracer.span("task") as span:
            search = TreeSearch(
                task.query, task.candidates, task.costs,
                task.rates.flow_pricer(task.query), task.sink, True,
                {"plans_examined": 0, "trees_examined": 0}, span, constraint=refuse,
            )
            with pytest.raises(InfeasiblePlacementError, match=(
                r"^no feasible placement for task over \[\['A'\], \['B'\]\] under the "
                r"utilization bound$"
            )):
                search.add_leaf_sets([{frozenset("A"): (0,), frozenset("B"): (1,)}])
        assert span.counters["infeasible_trees"] == 1


class TestLayout:
    def test_stacked_rows_build_each_programs_trees(self):
        """Program ``i``'s tree ``t`` out of the stack is its own tree
        ``t``, over its own leaves, with every row a row of its level."""
        programs = (
            join_program(4, (0b10, 0b101, 0b1010, 0b100)),  # a 4-chain: 5 trees
            join_program(2),
            join_program(3),
            join_program(1),
        )
        shape = layout(programs)
        assert layout(programs) is shape
        names = iter("ABCDEFGHIJ")
        leaves = [[Leaf.of(next(names)) for _ in range(p.num_views)] for p in programs]
        stacked = [leaf for own in leaves for leaf in own]
        assert shape.leaves == len(stacked) == 10
        assert shape.first_root == [0, 5, 6, 9, 10]
        depth = {}  # row -> its level (leaves: -1)
        low = shape.leaves
        for level, (left, right, sizes, keep) in enumerate(shape.levels):
            for row in range(low, low + len(left)):
                depth[row] = level
            assert sum(sizes) == len(left) == len(right)
            low += len(left)
        assert low == shape.rows
        for i, program in enumerate(programs):
            for index in range(program.trees):
                rows = {}
                tree = shape.tree(stacked, shape.first_root[i] + index, rows)
                assert tree == program.tree(leaves[i], index, {})
                for sub, row in rows.items():
                    assert depth.get(row, -1) == len(sub.leaves()) - 2
                # a root never ships; every other join row does
                root = rows[tree]
                if root >= shape.leaves:
                    level_start = shape.leaves + sum(
                        len(lv[0]) for lv in shape.levels[: depth[root]]
                    )
                    assert root - level_start >= shape.levels[depth[root]][3]
