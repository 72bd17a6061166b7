"""The cold-node certificate against the constraint it short-cuts.

A node is *cold* for a query when its background load plus the most the
query's joins could add to it stays under the bound; there every mask
reads ``True`` and every placement passes ``validate``, so the task
search skips both on a task whose candidates are all cold.  The oracle
is the same constraint with the certificate forced off
(:class:`AlwaysHot`): every tree, placement, cost, objective, stat, span
counter and ``InfeasiblePlacementError`` must match it, across tight,
loose and mixed capacities, with and without a load penalty, and
through both planners.  Only the constrained
work counters and the array passes may differ, and only downward.

The second half checks the certificate's premise: the worst case it
derives bounds every join load and every node's share of any placement.
"""

from itertools import combinations, count, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.cost import RateModel
from repro.core.enumeration import all_join_trees
from repro.core.search import TreeSearch
from repro.errors import InfeasiblePlacementError
from repro.obs.tracer import Span, Tracer, tracing
from repro.perf.profiler import profiled
from repro.query.deployment import DeploymentState
from repro.query.query import JoinPredicate, Query
from repro.query.stream import Filter, StreamSpec
from repro.resources import (
    Load,
    NodeCapacity,
    OperatorFootprint,
    PlacementConstraint,
    ResourceConfig,
)

from tests.core.test_shared_search import NUM_NODES, tasks

#: The counters the certificate saves (a certified two-view leaf set is
#: priced in scalars, no array pass); everything else is compared as is.
WORK = ("joint_validations", "join_loads_priced", "joins_built", "search_array_passes")
LOOSE = 1e9


class AlwaysHot(PlacementConstraint):
    """The oracle: no node is ever certified."""

    def _cold(self, node: int) -> bool:
        return False


def _capacities(regime, scale, draws):
    """``tight``: every node near the task's load; ``loose``: none;
    ``mixed``: the nodes with the larger draws loose, the rest tight."""
    out = {}
    for node, draw in enumerate(draws):
        loose = regime == "loose" or (regime == "mixed" and draw > 1.4)
        out[node] = NodeCapacity(cpu=LOOSE if loose else scale * float(draw))
    return out


def _assert_same_work(ops, oracle_ops):
    """Every profiler counter equal but the saved work, which only falls."""
    for key in set(ops) | set(oracle_ops):
        if key in WORK:
            assert ops.get(key, 0) <= oracle_ops.get(key, 0), key
        else:
            assert ops[key] == oracle_ops[key], key


def _assert_no_constraint_work(ops):
    assert "joint_validations" not in ops and "join_loads_priced" not in ops


# ----------------------------------------------------------------------
# One task
# ----------------------------------------------------------------------
def _search(task, constraint):
    tracer = Tracer()
    stats = {"plans_examined": 0, "trees_examined": 0}
    with tracing(tracer), profiled() as prof, Span("task", tracer=tracer) as span:
        search = TreeSearch(
            task.query, task.candidates, task.costs,
            task.rates.flow_pricer(task.query), task.sink, task.connected_only,
            stats, span, constraint=constraint,
        )
        try:
            best = search.add_leaf_sets(task.leaf_sets)
        except InfeasiblePlacementError:
            best = None
    return best, stats, list(span.counters.items()), prof.ops


class TestTaskDifferential:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        tasks(),
        st.sampled_from(("tight", "loose", "mixed")),
        st.sampled_from((0.0, 2.5)),
    )
    def test_same_choice_as_the_oracle(self, task, regime, load_weight):
        total = sum(spec.rate for spec in task.rates.streams.values())

        def make(cls):
            return cls(
                query=task.query,
                footprint=OperatorFootprint(task.rates),
                capacities=_capacities(regime, total, task.capacity_draws),
                base_loads={
                    node: Load(cpu=float(task.background[node]))
                    for node in range(0, NUM_NODES, 2)
                },
                load_weight=load_weight,
            )

        binds = make(PlacementConstraint).binds(task.candidates)
        best, stats, counters, ops = _search(task, make(PlacementConstraint))
        ref, ref_stats, ref_counters, ref_ops = _search(task, make(AlwaysHot))
        assert stats == ref_stats
        assert counters == ref_counters  # values and first-increment order
        _assert_same_work(ops, ref_ops)
        if binds:  # the joint checks owed are the oracle's
            assert ops.get("joint_validations") == ref_ops.get("joint_validations")
        else:
            _assert_no_constraint_work(ops)
        if ref is None:
            assert best is None
            return
        assert best.tree == ref.tree
        assert best.placement == ref.placement
        assert best.cost == ref.cost  # bit-equal, not approx
        assert best.objective == ref.objective

    def test_hot_and_cold_candidates_of_one_constraint(self):
        streams = {n: StreamSpec(n, i, 10.0) for i, n in enumerate("ABC")}
        query = Query(
            "q", list(streams), sink=0,
            predicates=[JoinPredicate("A", "B", 0.1), JoinPredicate("B", "C", 0.1)],
        )
        # Worst case: 2 joins x cpu 2 x 100 (the rate of A*B) = 400.
        constraint = PlacementConstraint(
            query=query, footprint=OperatorFootprint(RateModel(streams)),
            capacities={0: NodeCapacity(cpu=400.5), 1: NodeCapacity(cpu=399.5)},
            base_loads={2: Load(cpu=-1.0)},
        )
        assert constraint._worst[0] == pytest.approx(400.0)
        assert constraint.binds([0, 2, 3]) is False  # 3: no capacity at all
        assert constraint.binds([0, 1]) is True
        # A penalty needs every candidate's utilization, cold or not.
        constraint.load_weight = 0.5
        assert constraint.binds([0]) is True


# ----------------------------------------------------------------------
# Both planners end to end
# ----------------------------------------------------------------------
def _ticking_clock():
    ticks = count()
    return lambda: float(next(ticks))


def _plan_all(optimizer_cls, seed, regime, load_weight, cls):
    net = repro.transit_stub_by_size(48, seed=seed)
    hierarchy = repro.build_hierarchy(net, max_cs=5, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=8, num_queries=14, joins_per_query=(1, 5)),
        seed=seed + 1,
    )
    rates = workload.rate_model()
    footprint = OperatorFootprint(rates)
    draws = np.random.default_rng(seed).uniform(0.3, 2.5, max(net.nodes()) + 1)
    capacities = _capacities(regime, 800.0, draws)
    base_loads = {node: Load(cpu=40.0 * float(draws[node])) for node in net.nodes()}
    resources = SimpleNamespace(
        constraint_for=lambda query: cls(
            query=query, footprint=footprint, capacities=capacities,
            base_loads=base_loads, load_weight=load_weight,
        )
    )
    optimizer = optimizer_cls(hierarchy, rates)
    optimizer.resources = resources
    state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
    out = []
    with tracing(Tracer(clock=_ticking_clock())), profiled() as prof:
        for query in workload:
            try:
                deployment = optimizer.plan(query, state, explain=True)
            except InfeasiblePlacementError as exc:
                out.append(str(exc))
                continue
            state.apply(deployment)
            out.append(deployment)
    return out, prof.ops


@pytest.mark.parametrize("load_weight", (0.0, 0.5))
@pytest.mark.parametrize("regime", ("tight", "loose", "mixed"))
@pytest.mark.parametrize("seed", (5, 23))
@pytest.mark.parametrize(
    "optimizer_cls", [repro.TopDownOptimizer, repro.BottomUpOptimizer],
    ids=("top-down", "bottom-up"),
)
def test_planner_end_to_end(optimizer_cls, seed, regime, load_weight):
    ours, ops = _plan_all(optimizer_cls, seed, regime, load_weight, PlacementConstraint)
    theirs, oracle_ops = _plan_all(optimizer_cls, seed, regime, load_weight, AlwaysHot)
    assert any(not isinstance(d, str) for d in ours)
    assert len(ours) == len(theirs)
    for mine, ref in zip(ours, theirs):
        if isinstance(ref, str):
            assert mine == ref
            continue
        assert mine.plan == ref.plan
        assert mine.placement == ref.placement
        assert mine.stats == ref.stats  # the whole span tree, ticking clock
        assert mine.explanation.to_dict() == ref.explanation.to_dict()
    _assert_same_work(ops, oracle_ops)
    if load_weight > 0:
        assert ops["joint_validations"] == oracle_ops["joint_validations"]
    elif regime == "loose":
        _assert_no_constraint_work(ops)
    elif regime == "mixed":  # some tasks certified, some not
        assert 0 < ops["joint_validations"] < oracle_ops["joint_validations"]


# ----------------------------------------------------------------------
# The worst case bounds what it stands for
# ----------------------------------------------------------------------
@st.composite
def queries(draw):
    k = draw(st.integers(1, 5))
    names = [f"S{i}" for i in range(k)]
    rate = st.floats(0.01, 1000.0)
    selectivity = st.floats(1e-3, 1.0)
    streams = {n: StreamSpec(n, i, draw(rate)) for i, n in enumerate(names)}
    pairs = draw(st.lists(st.sampled_from(list(combinations(names, 2)) or [None]),
                          unique=True))
    predicates = [JoinPredicate(a, b, draw(selectivity)) for a, b in filter(None, pairs)]
    # Filters may repeat: the signature keeps one of each.
    filters = [
        Filter(name, f"p{j % 2}", draw(selectivity))
        for name in names for j in range(draw(st.integers(0, 2)))
    ]
    query = Query(
        "q", names, sink=0, predicates=predicates, filters=filters,
        allow_cross_products=True, window=draw(st.floats(0.05, 4.0)),
    )
    footprint = OperatorFootprint(RateModel(streams))
    return PlacementConstraint(query, footprint, capacities={}, base_loads={})


def _split(left, right):
    return SimpleNamespace(
        left=SimpleNamespace(sources=frozenset(left)),
        right=SimpleNamespace(sources=frozenset(right)),
    )


@settings(max_examples=120, deadline=None, derandomize=True)
@given(queries(), st.data())
def test_worst_case_bounds_every_join_and_node(constraint, data):
    names = list(constraint.query.sources)
    worst = constraint._worst
    if len(names) == 1:
        assert worst == (0.0, 0.0, 0.0)
        return
    per_join = [w / (len(names) - 1) for w in worst]
    for side in product((0, 1, 2), repeat=len(names)):
        left = [n for n, s in zip(names, side) if s == 1]
        right = [n for n, s in zip(names, side) if s == 2]
        if left and right:
            load = constraint.join_load(_split(left, right))
            for got, bound in zip((load.cpu, load.memory, load.bandwidth), per_join):
                assert got <= bound
    trees = all_join_trees([frozenset((n,)) for n in names])
    for tree in data.draw(st.lists(st.sampled_from(trees), min_size=1, max_size=3)):
        nodes = data.draw(st.lists(st.integers(0, 2), min_size=len(names) - 1,
                                   max_size=len(names) - 1))
        placement = dict(zip(tree.joins(), nodes))
        for load in constraint.added_loads(tree, placement).values():
            for got, bound in zip((load.cpu, load.memory, load.bandwidth), worst):
                assert got <= bound
