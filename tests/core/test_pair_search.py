"""The scalar pricing of a two-view leaf set against the array path.

A leaf set of two views has one tree and one join, and unless the
constraint binds on the task's candidates :class:`TreeSearch` prices it
in scalars (``TreeSearch._price_pair``).  Two oracles hold it to what it
replaced:

* the level pass, which every two-view leaf set took before
  (:class:`ArrayPairs` sends the pairs to ``TreeSearch._price_stacked``:
  ``LevelDP.price`` / ``place`` on the stacked ``join_program(2)``):
  same tree, same placement (in the same insertion order),
  ``float.hex``-equal cost and objective, the same stats, the same span
  counters in the same order, and the same work counters but for the
  array passes the scalar path does not make.
* ``tests/core/reference_search.py``, the literal per-tree loop, whenever
  the pair's objective is finite.  (With every candidate unreachable
  the searches refuse the tree as ``infeasible_trees`` where the literal
  loop adopts an ``inf``-cost result; that case is held to the array
  path only.)

Tasks draw 1-6 candidates in any order, leaves with 1-3 positions in any
order (a leaf with fewer positions is the array path's padded case), a
sink or none, integral costs so candidates and positions tie exactly,
one unreachable (``inf``) entry, connected and cross-product pairs,
reused multi-stream views, a constraint that cannot bind (the array
path then re-derives the cost from the placement; the scalar path
reports its objective), and an incumbent -- an earlier leaf set, or a
lone view read at a node of its own whose objective sits within a few
``_TIE`` of the pair's.
"""

import re
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.cost import RateModel
from repro.core.search import _TIE, TreeSearch
from repro.errors import PlanningError
from repro.obs.tracer import Span, Tracer, tracing
from repro.perf.profiler import profiled
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from repro.resources import NodeCapacity, OperatorFootprint, PlacementConstraint

from tests.core.reference_search import ReferenceTreeSearch

NUM_NODES = 8

nodes = st.integers(0, NUM_NODES - 1)


@st.composite
def pair_tasks(draw):
    """One task whose leaf sets are pairs of views over the same streams."""
    sizes = draw(st.lists(st.sampled_from((1, 1, 2)), min_size=2, max_size=2))
    names = iter(f"S{i}" for i in range(4))
    views = [tuple(next(names) for _ in range(size)) for size in sizes]
    integral = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))

    def number(low, high):
        return float(rng.integers(low, high)) if integral else float(rng.uniform(low, high))

    streams = {
        name: StreamSpec(name, int(rng.integers(NUM_NODES)), number(1, 9))
        for view in views for name in view
    }
    predicates = [JoinPredicate(v[0], v[1], 0.5) for v in views if len(v) == 2]
    if draw(st.booleans()):  # connected; otherwise a cross product
        predicates.append(JoinPredicate(views[0][-1], views[1][0], 0.5))
    sink = draw(st.one_of(st.none(), nodes))
    query = Query(
        "q", list(streams), sink=sink if sink is not None else 0,
        predicates=predicates, allow_cross_products=True,
    )
    # Positions in any order: the first of tied positions must win.
    distinct = st.lists(nodes, min_size=1, max_size=3, unique=True)

    def leaf_set():
        return {frozenset(v): tuple(draw(distinct)) for v in views}

    leaf_sets = [leaf_set()]
    incumbent = draw(st.sampled_from((None, "leaf set", "lone view")))
    if incumbent == "leaf set":
        # An earlier leaf set: the same views at other positions.
        leaf_sets.insert(0, leaf_set())

    # Node NUM_NODES is the lone view's alone: no candidate or leaf uses it.
    half = rng.uniform(0, 3, (NUM_NODES + 1, NUM_NODES + 1))
    if integral:
        half = np.floor(half)
    costs = half + half.T
    np.fill_diagonal(costs, 0.0)
    candidates = draw(st.lists(nodes, min_size=1, max_size=6, unique=True))
    # One unreachable pair: a leaf's position and a candidate, or a
    # candidate and the sink (with one candidate, no finite objective).
    unreachable = draw(st.sampled_from((None, "leaf", "sink")))
    if unreachable == "leaf":
        view = draw(st.sampled_from(sorted(leaf_sets[-1], key=sorted)))
        position = draw(st.sampled_from(leaf_sets[-1][view]))
        costs[position, draw(st.sampled_from(candidates))] = np.inf
    elif unreachable == "sink" and sink is not None:
        costs[draw(st.sampled_from(candidates)), sink] = np.inf
    return SimpleNamespace(
        query=query, rates=RateModel(streams), leaf_sets=leaf_sets, costs=costs,
        candidates=candidates, sink=sink, connected_only=draw(st.booleans()),
        loose=draw(st.booleans()), incumbent=incumbent,
        # Offset of the lone view's objective from the pair's.
        offset=draw(st.sampled_from((-1, 0, 0.5, 1, 1.5, 2))) * _TIE,
    )


def _constraint(task):
    """A constraint that cannot bind (``None`` for an unconstrained task)."""
    if not task.loose:
        return None
    constraint = PlacementConstraint(
        query=task.query, footprint=OperatorFootprint(task.rates),
        capacities={node: NodeCapacity(cpu=1e9) for node in range(NUM_NODES)},
        base_loads={},
    )
    assert not constraint.binds(task.candidates)
    return constraint


class ArrayPairs(TreeSearch):
    """The search with its free pairs priced by one level pass, as every
    two-view leaf set was before the scalar path."""

    pairs = ()

    def _price_pair(self, leaf_set):
        self.pairs = [*self.pairs, leaf_set]

    def _scan(self, sets):
        self._price_stacked(self.pairs)
        return super()._scan(sets)


def _run(make_search, task, leaf_sets=None):
    """Run one search over ``leaf_sets`` (the task's by default)."""
    tracer = Tracer()
    stats = {"plans_examined": 0, "trees_examined": 0}
    with tracing(tracer), profiled() as prof, Span("task", tracer=tracer) as span:
        search = make_search(
            task.query, task.candidates, task.costs,
            task.rates.flow_pricer(task.query), task.sink, task.connected_only,
            stats, span, constraint=_constraint(task),
        )
        try:
            best = search.add_leaf_sets(leaf_sets or task.leaf_sets)
        except PlanningError:
            best = None
    return SimpleNamespace(
        best=best, stats=stats, counters=list(span.counters.items()),
        ops=list(prof.ops.items()),
    )


def _with_lone_view(task):
    """The task's leaf sets after a lone view of every stream, read at
    node ``NUM_NODES`` at ``offset`` from the pair's objective (left
    out when that cannot be placed, or without a sink to price it)."""
    if task.incumbent != "lone view" or task.sink is None:
        return task.leaf_sets
    alone = _run(ArrayPairs, task).best
    if alone is None:
        return task.leaf_sets
    view = frozenset(task.query.sources)
    rate = task.rates.flow_pricer(task.query)(Leaf(view))
    task.costs[NUM_NODES, task.sink] = (alone.objective + task.offset) / rate
    return [{view: (NUM_NODES,)}, *task.leaf_sets]


def _same(ours, theirs):
    if theirs is None:
        assert ours is None
        return
    assert ours.tree == theirs.tree
    assert list(ours.placement.items()) == list(theirs.placement.items())
    assert all(type(node) is int for node in ours.placement.values())
    assert float(ours.cost).hex() == float(theirs.cost).hex()
    assert float(ours.objective).hex() == float(theirs.objective).hex()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pair_tasks())
def test_scalar_pair_is_the_array_path(task):
    leaf_sets = _with_lone_view(task)
    scalar = _run(TreeSearch, task, leaf_sets)
    array = _run(ArrayPairs, task, leaf_sets)
    kept = scalar.best is not None and isinstance(scalar.best.tree, Leaf)
    event(f"incumbent: {task.incumbent}, lone view kept: {kept}, loose: {task.loose}")
    event(f"infeasible trees: {dict(scalar.counters).get('infeasible_trees', 0)}")
    _same(scalar.best, array.best)
    assert scalar.stats == array.stats
    assert scalar.counters == array.counters
    # The same work but the array passes, which the scalar path does not make.
    assert scalar.ops == [(k, v) for k, v in array.ops if k != "search_array_passes"]
    assert dict(array.ops)["search_array_passes"] == 2

    literal = _run(partial(ReferenceTreeSearch, task.rates), task, leaf_sets)
    if all(dict(run.counters).get("infeasible_trees", 0) == 0 for run in (scalar, literal)):
        _same(scalar.best, literal.best)
        assert scalar.stats == literal.stats
        assert scalar.counters == literal.counters


def test_a_binding_constraint_keeps_the_array_path():
    streams = {"A": StreamSpec("A", 0, 5.0), "B": StreamSpec("B", 1, 3.0)}
    query = Query("q", ["A", "B"], sink=2, predicates=[JoinPredicate("A", "B", 0.5)])
    rates = RateModel(streams)
    costs = np.ones((3, 3)) - np.eye(3)
    constraint = PlacementConstraint(
        query=query, footprint=OperatorFootprint(rates),
        capacities={node: NodeCapacity(cpu=1e9) for node in range(3)},
        base_loads={}, load_weight=0.5,
    )
    assert constraint.binds([0, 1, 2])
    tracer = Tracer()
    stats = {"plans_examined": 0, "trees_examined": 0}
    with tracing(tracer), profiled() as prof, Span("task", tracer=tracer) as span:
        search = TreeSearch(
            query, [0, 1, 2], costs, rates.flow_pricer(query), 2, True,
            stats, span, constraint=constraint,
        )
        best = search.add_leaf_sets([{frozenset("A"): (0,), frozenset("B"): (1,)}])
    assert prof.ops["search_array_passes"] == 2
    assert prof.ops["joint_validations"] == 1
    assert best.tree == Join(Leaf.of("A"), Leaf.of("B"))


# ----------------------------------------------------------------------
# Join's child order
# ----------------------------------------------------------------------
names = st.text(alphabet="ABC", min_size=1, max_size=3)
name_sets = st.frozensets(names, min_size=1, max_size=4)


def _sorted_order(x, y):
    """The children as the ``sorted(...)`` comparison orders them."""
    return (y, x) if sorted(x.sources) > sorted(y.sources) else (x, y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name_sets, name_sets, name_sets)
def test_join_orders_disjoint_children_as_sorted_does(a, b, c):
    b, c = b - a, c - a - b
    if not b:
        return
    pairs = [(Leaf(a), Leaf(b))]
    if c:  # a join child too
        pairs.append((Leaf(c), Join(Leaf(a), Leaf(b))))
    for x, y in pairs:
        for first, second in ((x, y), (y, x)):
            join = Join(first, second)
            assert (join.left, join.right) == _sorted_order(first, second)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name_sets, name_sets)
def test_overlapping_children_still_raise(a, b):
    common = a & b
    if not common:
        return
    message = re.escape(f"join children overlap on {sorted(common)}")
    with pytest.raises(ValueError, match=message):
        Join(Leaf(a), Leaf(b))
    with pytest.raises(ValueError, match=message):
        Join(Leaf(b), Leaf(a))
