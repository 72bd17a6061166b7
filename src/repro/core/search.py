"""The tree search of one planning task, shared by both hierarchical planners.

A planning task -- a Top-Down cluster task, a Bottom-Up component --
picks the cheapest (join tree, operator placement) over one or more
*leaf sets* (the task's inputs as given, plus every grouping of them
into advertised reusable views).  The paper's coordinators "exhaustively
construct the possible query trees"; this search visits exactly those
trees and returns exactly the optimum the literal enumerate -> filter ->
place-each-tree loop returns (that loop lives on as the oracle
``tests/core/reference_search.py``), but

* no tree is built to be priced: the enumeration is an index program
  (:func:`~repro.core.enumeration.join_program`, one per predicate-graph
  shape, cross-product splits pruned when a connected tree exists) that
  :class:`~repro.core.placement.LevelDP` prices a subset size at a time,
  a subtree shared by many trees being one row, and
* ``Join`` nodes and a placement are built for the winner only -- under
  a resource constraint that can bind on the task's candidates, for each
  tree that beats the incumbent and so owes the joint ``validate`` (the
  two tests commute: same decisions, same order).  On candidates the
  constraint certifies cold the masks, penalties and joint checks could
  refuse nothing, so none is built or run.
* a leaf set of two views has one tree and one join; unless the
  constraint binds it is priced in scalars (:meth:`TreeSearch._add_pair`),
  the level pass's IEEE operations on its one row, with no program,
  array or row table.

The counters written to ``stats`` and the span are the paper's *nominal*
search-space accounting (trees that exist, assignments they span), not
the work done here; work is what :mod:`repro.perf.profiler` counts.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.enumeration import count_bushy_trees, join_program, view_adjacency
from repro.core.placement import LevelDP, PlacementResult
from repro.perf import profiler as _perf
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import Query

#: An objective must beat the incumbent by more than this to replace it,
#: so the first tree in enumeration order wins a tie.
_TIE = 1e-12


def _nearest(positions: Sequence[int], node: int, rate: float, item) -> tuple[float, int]:
    """``min_p C[p, node] * rate`` over a leaf's positions and the first
    position reaching it: the leaf's ``ship`` entry in
    :meth:`LevelDP.price` and its ``argmin`` in :meth:`LevelDP.place`."""
    at = positions[0]
    best = item(at, node) * rate
    for p in positions[1:]:
        cost = item(p, node) * rate
        if cost < best:
            best, at = cost, p
    return best, at


class _Unbuilt:
    """What rate and load pricing read of a join nobody has built: its
    sides in :class:`~repro.query.plan.Join`'s canonical order and their
    union."""

    __slots__ = ("left", "right", "sources")

    def __init__(self, left, right) -> None:
        # ``sorted(a) > sorted(b)`` of disjoint sets is decided by the minima.
        if min(left.sources) > min(right.sources):
            left, right = right, left
        self.left, self.right = left, right
        self.sources = left.sources | right.sources


class TreeSearch:
    """Incumbent-keeping search over the leaf-set alternatives of a task.

    Args:
        query: The query being planned (its predicates decide which
            joins are cross products).
        candidates: Nodes the task's join operators may be placed on.
        costs: All-pairs traversal-cost matrix.
        flow: Shipping rate of a subtree (:meth:`RateModel.flow_pricer`).
        sink: Node the task's output is delivered to (``None``: nowhere).
        connected_only: Skip cross-product trees when a connected one exists.
        stats: The deployment's stats dict; ``plans_examined`` and
            ``trees_examined`` are advanced per tree.
        span: The task's span (nominal search counters).
        tracer: Tracer whose current span is ``span``.
        constraint: Optional
            :class:`~repro.resources.constraint.PlacementConstraint`.

    Attributes:
        best: The cheapest feasible result so far (``None``: none yet).
    """

    def __init__(
        self,
        query: Query,
        candidates: Sequence[int],
        costs: np.ndarray,
        flow: Callable[[PlanNode], float],
        sink: int | None,
        connected_only: bool,
        stats: dict,
        span,
        tracer,
        constraint=None,
    ) -> None:
        self.query = query
        self.candidates = candidates
        self.costs = costs
        self.flow = flow
        self.sink = sink
        self.connected_only = connected_only
        self.stats = stats
        self.span = span
        self.tracer = tracer
        self.constraint = constraint
        self.best: PlacementResult | None = None
        self._table = LevelDP(candidates, costs, sink, tracer=tracer, constraint=constraint)
        self._nodes = [int(node) for node in candidates]

    def offer(self, result: PlacementResult) -> None:
        """Let a result priced by the caller compete with the incumbent."""
        if self.best is None or result.objective < self.best.objective - _TIE:
            self.best = result

    def add_leaf_set(
        self,
        views: Sequence[frozenset[str]],
        positions: Mapping[frozenset[str], Sequence[int]],
    ) -> None:
        """Search every tree over ``views`` (placed at ``positions``)."""
        if len(views) == 2 and not self._table.binds:
            self._add_pair(views, positions)
        else:
            self._add_program(views, positions)

    def _add_pair(
        self,
        views: Sequence[frozenset[str]],
        positions: Mapping[frozenset[str], Sequence[int]],
    ) -> None:
        """The one tree over two views, priced in scalars.

        Per candidate ``v``, in candidate order, ``ship_a + ship_b`` (plus
        ``root_rate * C[v, sink]``), each ``ship`` the first minimum of
        ``C[p, v] * rate`` over the leaf's positions: the operations
        :meth:`LevelDP.price` performs on the one row, in its order, and
        the first minima :meth:`LevelDP.place` resolves.  Counters are
        written as :meth:`_add_program` writes them, except that no array
        pass is counted.
        """
        span, stats, tracer, sink = self.span, self.stats, self.tracer, self.sink
        nodes, item = self._nodes, self.costs.item
        span.incr("trees_enumerated", 1)
        # The one split is a cross product iff no predicate links the views.
        if self.connected_only and view_adjacency(self.query, views)[0]:
            span.incr("pruned_cross_trees", 0)
        prof = _perf.active()
        if tracer is not None:
            tracer.incr("placements", 1)
            tracer.incr("placement_dp_states", len(nodes))
        if prof is not None:
            prof.count("trees_enumerated", 1)
            prof.count("placements", 1)
            prof.count("cost_evaluations", len(nodes))
        leaves = [Leaf(view) for view in views]
        rate_a, rate_b = self.flow(leaves[0]), self.flow(leaves[1])
        root_rate = self.flow(_Unbuilt(*leaves)) if sink is not None else None
        pos_a, pos_b = positions[views[0]], positions[views[1]]
        objective = chosen = None
        for node in nodes:
            ship_a, at_a = _nearest(pos_a, node, rate_a, item)
            ship_b, at_b = _nearest(pos_b, node, rate_b, item)
            total = ship_a + ship_b
            if sink is not None:
                total = total + root_rate * item(node, sink)
            if chosen is None or total < objective:
                objective, chosen = total, (node, at_a, at_b)

        nominal = len(nodes)
        stats["plans_examined"] += nominal
        stats["trees_examined"] += 1
        if objective == math.inf:
            span.incr("infeasible_trees")
            return
        span.incr("plans_examined", nominal)
        bound = self.best.objective - _TIE if self.best is not None else math.inf
        if not objective < bound:
            return
        tree = Join(*leaves)
        if prof is not None:
            prof.count("joins_built", 1)
        node, at_a, at_b = chosen
        if tree.left is not leaves[0]:
            at_a, at_b = at_b, at_a
        # With no penalty (the constraint cannot bind) the communication
        # cost ``LevelDP.place`` re-derives under a constraint is this
        # objective: ``0.0 + ship`` is ``ship``, and the two ships commute.
        self.best = PlacementResult(
            placement={tree: node, tree.left: int(at_a), tree.right: int(at_b)},
            cost=objective,
            tree=tree,
        )

    def _add_program(
        self,
        views: Sequence[frozenset[str]],
        positions: Mapping[frozenset[str], Sequence[int]],
    ) -> None:
        """Every tree over ``views``, priced a subset size at a time."""
        span, stats, flow = self.span, self.stats, self.flow
        constraint = self.constraint if self._table.binds else None
        total = count_bushy_trees(len(views))
        span.incr("trees_enumerated", total)
        program = None
        if self.connected_only:
            program = join_program(len(views), view_adjacency(self.query, views))
        if program is not None and program.trees:
            span.incr("pruned_cross_trees", total - program.trees)
        else:
            program = join_program(len(views))
        prof = _perf.active()
        if prof is not None:
            prof.count("trees_enumerated", program.trees)
        # cover[mask]: the first tree over the mask, as far as pricing looks
        # -- the one whose ``sources`` the per-tree loop asks a rate for first.
        leaves = [Leaf(view) for view in views]
        cover: dict[int, object] = {1 << i: leaf for i, leaf in enumerate(leaves)}
        for mask, splits in program.blocks.items():
            left, right = splits[0]
            cover[mask] = _Unbuilt(cover[left], cover[right])
        levels = program.levels
        if constraint is not None:
            levels = [
                (left, right, [_Unbuilt(cover[a], cover[b]) for a, b in splits], sizes)
                for left, right, splits, sizes in levels
            ]
        objectives = self._table.price(
            [list(positions[view]) for view in views],
            levels,
            np.array([flow(cover[mask]) for mask in program.below]).take(program.row_mask),
            flow(cover[(1 << len(views)) - 1]) if self.sink is not None else None,
        ).tolist()
        if prof is not None:
            prof.count("search_array_passes", len(levels) + 1)

        def place(index: int) -> PlacementResult:
            rows: dict[PlanNode, int] = {}
            tree = program.tree(leaves, index, rows)
            if prof is not None:
                prof.count("joins_built", len(views) - 1)
            return self._table.place(tree, rows, index)

        # Every tree over these leaves has the same number of joins.  A tree
        # the constraint's masks leave no assignment reads ``inf``; the
        # counters appear in the order the per-tree loop first meets them.
        nominal = max(1, len(self.candidates)) ** (len(views) - 1)
        stats["plans_examined"] += nominal * len(objectives)
        stats["trees_examined"] += len(objectives)
        refused = objectives.count(math.inf)
        counted = [
            ("plans_examined", nominal * (len(objectives) - refused)),
            ("infeasible_trees", refused),
        ]
        for key, amount in reversed(counted) if objectives[0] == math.inf else counted:
            if amount:
                span.incr(key, amount)
        bound = self.best.objective - _TIE if self.best is not None else math.inf
        winner: int | None = None
        for index, objective in enumerate(objectives):
            if not objective < bound:
                continue
            if constraint is not None:
                # Independently feasible operators can still jointly
                # overload a node; the per-plan check is the contract.
                result = place(index)
                if not constraint.validate(result.tree, result.placement):
                    span.incr("infeasible_trees")
                    continue
                self.best = result
            bound, winner = objective - _TIE, index
        if winner is not None and constraint is None:
            self.best = place(winner)
