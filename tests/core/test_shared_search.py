"""The shared-subplan search against the literal per-tree loop.

:mod:`repro.core.search` must choose what ``reference_search`` (the
planners' loop before it, verbatim) chooses -- the same tree, the same
placement, bit-equal cost and objective, the same nominal counters --
while doing a fraction of the work.  The first half draws single tasks;
the second runs both planners end to end with the reference swapped in.

One counter is carved out.  The reference runs the joint ``validate`` on
every mask-feasible tree and counts each refusal in ``infeasible_trees``;
the search owes the check only to a tree about to become the incumbent,
so its ``infeasible_trees`` counts the trees it *checked and refused*:
every mask-infeasible tree, plus every tree that beat the incumbent of
its moment and then failed ``validate``.  That is never more than the
reference's count, equal to it whenever every refused tree was such an
incumbent candidate, and :func:`_refusals_by_rule` replays the rule tree
by tree to say exactly what it must be.  Every other counter, and the
order counters first appear in, is compared as is.
"""

import math
import re
from functools import partial
from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import bottom_up, enumeration, top_down
from repro.core.cost import RateModel
from repro.core.enumeration import all_join_trees, count_bushy_trees, crossing_splits
from repro.core.placement import PlacementResult
from repro.core.search import TreeSearch
from repro.errors import PlanningError
from repro.obs.tracer import Span, Tracer, tracing
from repro.perf.profiler import profiled
from repro.query.deployment import DeploymentState
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from repro.resources import Load, NodeCapacity, OperatorFootprint, PlacementConstraint
from repro.workload import build_world

from tests.core.reference_search import (
    ReferenceTreeSearch,
    reference_flow_rates,
    reference_tree_placement,
    tree_is_connected,
)

NUM_NODES = 10

#: Predicate graphs over the task's leaves; the last two have no
#: connected tree, so the search must fall back to every cross product.
SHAPES = ("chain", "star", "clique", "two-islands", "no-predicates")
CONSTRAINTS = (None, "bound", "weighted")


def _leaf_edges(shape: str, k: int) -> list[tuple[int, int]]:
    if shape == "chain":
        return [(i, i + 1) for i in range(k - 1)]
    if shape == "star":
        return [(0, i) for i in range(1, k)]
    if shape == "clique":
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    if shape == "two-islands":
        half = k // 2
        return [(i, i + 1) for i in range(k - 1) if i + 1 != half]
    return []


@st.composite
def tasks(draw, leaves=st.sampled_from((2, 3, 3, 4, 4, 5, 5, 6))):
    """One planning task: a query, leaf sets with positions, candidates, a
    sink and a constraint recipe.  ``integral`` draws small-integer rates
    and costs so that distinct trees tie exactly and the first-wins
    tie-break is exercised."""
    k = draw(leaves)
    sizes = draw(st.lists(st.sampled_from((1, 1, 2)), min_size=k, max_size=k))
    shape = draw(st.sampled_from(SHAPES))
    integral = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))

    def number(low, high):
        return float(rng.integers(low, high)) if integral else float(rng.uniform(low, high))

    names = iter(f"S{i:02d}" for i in count())
    views = [tuple(next(names) for _ in range(size)) for size in sizes]
    streams = {
        name: StreamSpec(name, int(rng.integers(NUM_NODES)), number(1, 9))
        for view in views for name in view
    }

    def selectivity():
        return 0.5 if integral else float(rng.uniform(0.05, 0.9))

    predicates = [
        JoinPredicate(views[i][0], views[j][-1], selectivity())
        for i, j in _leaf_edges(shape, k)
    ] + [JoinPredicate(v[0], v[1], selectivity()) for v in views if len(v) == 2]
    sink = draw(st.one_of(st.none(), st.integers(0, NUM_NODES - 1)))
    query = Query(
        "q", list(streams), sink=sink if sink is not None else 0,
        predicates=predicates, allow_cross_products=True,
    )

    def positions(view):
        if len(view) == 1:
            return (streams[view[0]].source,)
        n = int(rng.integers(1, 4))
        return tuple(sorted(int(p) for p in rng.choice(NUM_NODES, n, replace=False)))

    identity = {frozenset(v): positions(v) for v in views}
    leaf_sets = [identity]
    if k >= 3 and draw(st.booleans()):
        # A reuse grouping: the first two inputs served by one advertised view.
        merged = frozenset(views[0]) | frozenset(views[1])
        grouped = {merged: positions(tuple(merged) + ("x",))}
        grouped.update(list(identity.items())[2:])
        leaf_sets.append(grouped)

    half = rng.uniform(0, 4, (NUM_NODES, NUM_NODES))
    if integral:
        half = np.floor(half)
    costs = half + half.T
    np.fill_diagonal(costs, 0.0)
    candidates = sorted(
        int(c) for c in rng.choice(NUM_NODES, int(rng.integers(1, 6)), replace=False)
    )
    return SimpleNamespace(
        query=query, rates=RateModel(streams), leaf_sets=leaf_sets, costs=costs,
        candidates=candidates, sink=sink,
        constraint=draw(st.sampled_from(CONSTRAINTS)),
        connected_only=draw(st.sampled_from((True, True, False))),
        capacity_draws=rng.uniform(0.3, 2.5, NUM_NODES),
        background=rng.uniform(0.0, 3.0, NUM_NODES),
    )


def _constraint(task):
    """A fresh constraint per run (it memoizes loads internally)."""
    if task.constraint is None:
        return None
    total = sum(spec.rate for spec in task.rates.streams.values())
    scale = {
        "bound": total, "weighted": 4 * total, "all-infeasible": 1e-9, "loose": 1e9,
    }[task.constraint]
    return PlacementConstraint(
        query=task.query,
        footprint=OperatorFootprint(task.rates),
        capacities={
            node: NodeCapacity(cpu=scale * float(task.capacity_draws[node]))
            for node in range(NUM_NODES)
        },
        base_loads={
            node: Load(cpu=float(task.background[node])) for node in range(0, NUM_NODES, 2)
        },
        load_weight=2.5 if task.constraint == "weighted" else 0.0,
    )


def _run(make_search, task):
    tracer = Tracer()
    stats = {"plans_examined": 0, "trees_examined": 0}
    with tracing(tracer), profiled() as prof, Span("task", tracer=tracer) as span:
        search = make_search(
            task.query, task.candidates, task.costs,
            task.rates.flow_pricer(task.query), task.sink, task.connected_only,
            stats, span, constraint=_constraint(task),
        )
        try:
            best = search.add_leaf_sets(task.leaf_sets)
        except PlanningError as exc:
            best = exc
    return best, stats, list(span.counters.items()), prof.ops


def _stacked_views(task, binds):
    """The views of the leaf sets the level pass prices: three or more,
    or a pair the constraint binds on (a lone view and a free pair are
    priced in scalars)."""
    return [
        len(ls) for ls in task.leaf_sets
        if all(ls.values()) and (len(ls) > 2 or (binds and len(ls) == 2))
    ]


def _refusals_by_rule(task):
    """``infeasible_trees`` as the module docstring defines it, and how
    many trees owed a joint check (one per incumbent change or refusal,
    on candidates the constraint binds on).

    Written in the reference's order (validate every mask-feasible tree,
    then compare), so it shares no control flow with the search.
    """
    constraint = _constraint(task)
    incumbent, refused, owed = None, 0, 0
    for positions in filter(lambda ls: all(ls.values()), task.leaf_sets):
        views = list(positions)
        trees = []
        if task.connected_only:
            trees = all_join_trees(views, crossing_splits(task.query, views))
        trees = trees or all_join_trees(views)
        for tree in trees:
            try:
                result = reference_tree_placement(
                    tree, task.candidates, task.costs,
                    {Leaf(v): positions[v] for v in views},
                    reference_flow_rates(task.rates, task.query, tree),
                    task.sink, constraint=constraint,
                )
            except repro.errors.InfeasiblePlacementError:
                refused += 1
                continue
            feasible = constraint.validate(tree, result.placement)
            if incumbent is None or result.objective < incumbent - 1e-12:
                owed += 1
                if feasible:
                    incumbent = result.objective
                else:
                    refused += 1
    return refused, owed if constraint.binds(task.candidates) else 0


def _assert_same_choice(task):
    best, stats, counters, ops = _run(TreeSearch, task)
    ref, ref_stats, ref_counters, ref_ops = _run(
        partial(ReferenceTreeSearch, task.rates), task
    )
    assert stats == ref_stats
    refused = dict(counters).pop("infeasible_trees", 0)
    assert refused <= dict(ref_counters).get("infeasible_trees", 0)
    most_joins = max(len(ls) for ls in task.leaf_sets) - 1
    constraint = _constraint(task)
    binds = constraint is not None and constraint.binds(task.candidates)
    # one numpy pass per subset size of the largest stacked leaf set,
    # whatever the number of trees and leaf sets: none when every leaf
    # set is priced in scalars ...
    assert ops.get("search_array_passes", 0) == max(_stacked_views(task, binds), default=0)
    if not binds:
        # A constraint that cannot bind on these candidates costs nothing ...
        assert "joint_validations" not in ops and "join_loads_priced" not in ops
        # ... and Join nodes for the winner only.
        won = best.tree.num_joins if isinstance(best, PlacementResult) else 0
        assert ops.get("joins_built", 0) == won
    else:
        assert ops.get("joins_built", 0) <= most_joins * ops.get("joint_validations", 0)
        assert (refused, ops.get("joint_validations", 0)) == _refusals_by_rule(task)
        # ... where the reference pays one per mask-feasible tree.
        assert ops.get("joint_validations", 0) <= ref_ops.get("joint_validations", 0)
    # values and first-increment order
    assert _sans_refusals(counters) == _sans_refusals(ref_counters)
    assert ops.get("placements") == ref_ops.get("placements")
    if isinstance(ref, PlanningError):
        assert type(best) is type(ref) and str(best) == str(ref)
        return None
    assert best.tree == ref.tree
    assert best.placement == ref.placement
    assert best.cost == ref.cost  # bit-equal, not approx
    assert best.objective == ref.objective
    return best


def _sans_refusals(doc):
    """``doc`` with every ``infeasible_trees`` counter dropped."""
    if isinstance(doc, dict):
        return {
            k: _sans_refusals(v) for k, v in doc.items() if k != "infeasible_trees"
        }
    if isinstance(doc, (list, tuple)):
        return [
            _sans_refusals(item) for item in doc
            if not (isinstance(item, tuple) and item[0] == "infeasible_trees")
        ]
    if isinstance(doc, str):
        return re.sub(r"infeasible trees \d+(, )?", "", doc)
    return doc


def _refusals(doc) -> int:
    """Sum of the ``infeasible_trees`` counters of a span tree."""
    return doc["counters"].get("infeasible_trees", 0) + sum(
        _refusals(child) for child in doc["children"]
    )


class TestTaskDifferential:
    # 150: enough draws that adopting an incumbent before validating it
    # changes a *choice*, not only the validation count.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tasks())
    def test_same_tree_placement_cost_and_counters(self, task):
        _assert_same_choice(task)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(tasks(leaves=st.just(1)))
    def test_leaf_set_of_one_view(self, task):
        best = _assert_same_choice(task)
        assert best is not None and isinstance(best.tree, Leaf)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(tasks())
    def test_all_infeasible_task_finds_nothing(self, task):
        task.constraint = "all-infeasible"
        assert _assert_same_choice(task) is None

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(tasks())
    def test_cold_task_does_no_constraint_work(self, task):
        task.constraint = "loose"
        assert not _constraint(task).binds(task.candidates)
        _assert_same_choice(task)
        ops = _run(TreeSearch, task)[3]
        assert ops.get("joint_validations", 0) == ops.get("join_loads_priced", 0) == 0


class TestWorkCounts:
    """What the search *does*, as opposed to what it accounts for."""

    @staticmethod
    def _search(shape, k=5, num_candidates=4, repeats=1):
        names = [f"S{i}" for i in range(k)]
        streams = {n: StreamSpec(n, i, 10.0 + i) for i, n in enumerate(names)}
        query = Query(
            "q", names, sink=0,
            predicates=[
                JoinPredicate(names[i], names[j], 0.1) for i, j in _leaf_edges(shape, k)
            ],
        )
        rates = RateModel(streams)
        rng = np.random.default_rng(3)
        costs = rng.uniform(1, 5, (NUM_NODES, NUM_NODES))
        tracer = Tracer()
        stats = {"plans_examined": 0, "trees_examined": 0}
        with tracing(tracer), profiled() as prof, Span("task", tracer=tracer) as span:
            search = TreeSearch(
                query, list(range(num_candidates)), costs, rates.flow_pricer(query),
                0, True, stats, span,
            )
            best = search.add_leaf_sets(
                [{frozenset((n,)): (streams[n].source,) for n in names}] * repeats
            )
        return prof.ops, span.counters, stats, best

    def test_clique_builds_one_row_per_distinct_subtree(self):
        ops, counters, stats, _ = self._search("clique")
        # 10 pairs x 1 + 10 triples x 3 + 5 quads x 15 + 105 full trees
        assert ops["cost_evaluations"] == 220 * 4
        assert ops["trees_enumerated"] == ops["placements"] == 105
        # ... while the nominal accounting still reads 105 trees x 4 joins.
        assert counters["placement_dp_states"] == 105 * 4 * 4
        assert counters["trees_enumerated"] == stats["trees_examined"] == 105
        assert stats["plans_examined"] == 105 * 4**4

    @pytest.mark.parametrize("shape, trees", [("chain", 42), ("clique", 945)])
    def test_passes_follow_the_views_and_joins_the_winner(self, shape, trees):
        ops, _, stats, best = self._search(shape, k=6)
        assert ops["placements"] == stats["trees_examined"] == trees
        # leaves, sizes 2..5, roots (<= views + 1): as many for 945 trees as for 42
        assert ops["search_array_passes"] == 6
        assert ops["joins_built"] == best.tree.num_joins == 5
        # The same leaf set again ties with the first everywhere: stacked
        # into the same 6 passes, and only the winner built.
        again, _, stats, same = self._search(shape, k=6, repeats=2)
        assert stats["trees_examined"] == 2 * trees
        assert again["search_array_passes"] == 6 and again["joins_built"] == 5
        assert same.tree == best.tree and same.cost == best.cost

    def test_chain_builds_no_cross_product(self):
        ops, counters, stats, best = self._search("chain")
        # The connected trees of a 5-chain: Catalan(4).
        assert ops["trees_enumerated"] == ops["placements"] == 14
        assert counters["trees_enumerated"] == 105
        assert counters["pruned_cross_trees"] == 105 - 14
        assert stats["trees_examined"] == 14
        # Adjacent runs only: every split of the program the search ran
        # joins two touching intervals, so no row is a cross product.
        program = enumeration.join_program(5, (0b10, 0b101, 0b1010, 0b10100, 0b1000))
        assert program.trees == 14 and len(program.blocks) == 4 + 3 + 2 + 1
        for mask, splits in program.blocks.items():
            for left, right in splits:
                for side in (left, right, left | right):
                    ids = [i for i in range(5) if side >> i & 1]
                    assert ids == list(range(ids[0], ids[-1] + 1))
                assert left | right == mask


class TestConstrainedWorkCounts:
    """The joint check and the load pricing at 200 live, resources armed."""

    def test_validations_follow_the_incumbent_and_loads_are_priced_once(
        self, monkeypatch
    ):
        net = repro.transit_stub_by_size(64, seed=3)
        hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=10, num_queries=201, joins_per_query=(1, 4)),
            seed=4,
        )
        rates = workload.rate_model()
        ads = repro.AdvertisementIndex(hierarchy)
        service = repro.StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates, ads=ads), net, rates,
            hierarchy=hierarchy, ads=ads,
            admission=repro.AdmissionController(budget=256),
            resources=repro.ResourceConfig(
                capacities={
                    node: NodeCapacity(cpu=3000.0 + 1500.0 * (node % 5))
                    for node in net.nodes()
                },
                load_weight=0.5,
            ),
        )
        verdicts, splits = [], set()
        searches, plans = [], []

        def spy(owner, name, after):
            original = getattr(owner, name)

            def wrapper(self, *args, **kwargs):
                out = original(self, *args, **kwargs)
                after(out, *args)
                return out

            monkeypatch.setattr(owner, name, wrapper)
            return original

        spy(PlacementConstraint, "validate",
            lambda ok, plan, placement: verdicts.append(ok))
        spy(PlacementConstraint, "join_mask",
            lambda out, sub, cand: splits.add((sub.left.sources, sub.right.sources)))
        scan = TreeSearch._scan
        plan = repro.TopDownOptimizer.plan

        def counted_scan(self, sets):
            # Every leaf set's objectives, priced, in the order scanned.
            objectives = [o for ls in sets if ls is not None for o in ls.objectives]
            validated = prof.ops.get("joint_validations", 0)
            verdicts.clear()
            best = scan(self, sets)
            incumbent, owed, refused = None, 0, 0
            # Objectives in alternative then tree order, verdicts in the
            # order given.
            for objective in objectives:
                if math.isfinite(objective) and (
                    incumbent is None or objective < incumbent - 1e-12
                ):
                    owed += 1
                    if verdicts[owed - 1]:  # IndexError: an incumbent never validated
                        incumbent = objective
                    else:
                        refused += 1
            searches.append((
                len(objectives), owed, refused,
                prof.ops.get("joint_validations", 0) - validated,
            ))
            return best

        def counted_plan(self, *args, **kwargs):
            splits.clear()
            priced = prof.ops.get("join_loads_priced", 0)
            try:
                return plan(self, *args, **kwargs)
            finally:
                plans.append((prof.ops.get("join_loads_priced", 0) - priced, len(splits)))

        monkeypatch.setattr(TreeSearch, "_scan", counted_scan)
        monkeypatch.setattr(repro.TopDownOptimizer, "plan", counted_plan)
        *fill, last = workload
        with profiled() as prof:
            for query in fill:
                service.submit(query)
        assert len(service.engine.state.deployments) == 200

        # incumbent changes + refusals, and not one check more
        assert all(validated == owed for _, owed, _, validated in searches)
        trees, validations, refusals = (
            sum(column) for column in list(zip(*searches))[:3]
        )
        assert refusals > 0, "capacities too roomy to refuse anything"
        assert validations < trees / 2, "one joint check per tree is the old price"
        assert plans and all(0 < priced <= distinct for priced, distinct in plans)

        monkeypatch.undo()
        free = repro.TopDownOptimizer(hierarchy, rates)
        with profiled() as prof:
            free.plan(last, DeploymentState(net.cost_matrix(), rates.rate, rates.source))
        assert "joint_validations" not in prof.ops and "join_loads_priced" not in prof.ops


class TestPrunedEnumeration:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tasks())
    def test_is_the_filtered_enumeration_in_order(self, task):
        views = list(task.leaf_sets[0])
        everything = all_join_trees(views)
        assert len(everything) == count_bushy_trees(len(views))
        pruned = all_join_trees(views, crossing_splits(task.query, views))
        assert pruned == [
            t for t in everything if tree_is_connected(task.query, t)
        ]


# ----------------------------------------------------------------------
# Both planners end to end
# ----------------------------------------------------------------------
def _ticking_clock():
    ticks = count()
    return lambda: float(next(ticks))


def _world(seed):
    params = repro.WorkloadParams(num_streams=8, num_queries=14, joins_per_query=(1, 5))
    return build_world(
        48, params, network_seed=seed, workload_seed=seed + 1, hierarchy_seeds={5: 0}
    )


def _capped(net, rates):
    """Stands in for a ResourceManager: a fixed bound plus a load penalty."""
    footprint = OperatorFootprint(rates)
    capacities = {
        node: NodeCapacity(cpu=400.0 + 150.0 * (node % 5)) for node in net.nodes()
    }
    return SimpleNamespace(
        constraint_for=lambda query: PlacementConstraint(
            query=query, footprint=footprint, capacities=capacities,
            base_loads={}, load_weight=0.5,
        )
    )


def _plan_all(optimizer_cls, seed, constrained, swap_search=None):
    world = _world(seed)
    net, hierarchy, rates = world.network, world.hierarchy(), world.rates
    if swap_search is not None:
        swap_search(partial(ReferenceTreeSearch, rates))
    optimizer = optimizer_cls(hierarchy, rates)
    optimizer.resources = _capped(net, rates) if constrained else None
    state = DeploymentState(net.cost_matrix(), rates.rate, rates.source)
    out = []
    with tracing(Tracer(clock=_ticking_clock())):
        for query in world.workload:
            try:
                deployment = optimizer.plan(query, state, explain=True)
            except repro.errors.InfeasiblePlacementError as exc:
                out.append(str(exc))
                continue
            state.apply(deployment)
            out.append(deployment)
    return out


@pytest.mark.parametrize("constrained", (False, True), ids=("free", "capped"))
@pytest.mark.parametrize("seed", (5, 23))
@pytest.mark.parametrize(
    "module, optimizer_cls",
    [(top_down, repro.TopDownOptimizer), (bottom_up, repro.BottomUpOptimizer)],
    ids=("top-down", "bottom-up"),
)
def test_planner_end_to_end(monkeypatch, module, optimizer_cls, seed, constrained):
    shipped = _plan_all(optimizer_cls, seed, constrained)
    literal = _plan_all(
        optimizer_cls, seed, constrained,
        swap_search=lambda search: monkeypatch.setattr(module, "TreeSearch", search),
    )
    assert len(shipped) == len(literal)
    assert any(not isinstance(d, str) for d in shipped)
    for ours, theirs in zip(shipped, literal):
        if isinstance(theirs, str):
            assert ours == theirs
            continue
        assert ours.plan == theirs.plan
        assert ours.placement == theirs.placement
        # stats carry the whole span tree (ticking clock: equal durations);
        # infeasible_trees is the carve-out of the module docstring.
        assert _sans_refusals(ours.stats) == _sans_refusals(theirs.stats)
        assert _sans_refusals(ours.explanation.to_dict()) == _sans_refusals(
            theirs.explanation.to_dict()
        )
        assert _sans_refusals(ours.explanation.render()) == _sans_refusals(
            theirs.explanation.render()
        )
        assert _refusals(ours.stats["trace"]) <= _refusals(theirs.stats["trace"])

