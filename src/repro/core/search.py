"""The tree search of one planning task, shared by both hierarchical planners.

A planning task -- a Top-Down cluster task, a Bottom-Up component --
picks the cheapest (join tree, operator placement) over one or more
*leaf sets* (the task's inputs as given, plus every grouping of them
into advertised reusable views).  The paper's coordinators "exhaustively
construct the possible query trees"; this search visits exactly those
trees and returns exactly the optimum the literal enumerate -> filter ->
place-each-tree loop returns (that loop lives on as the oracle
``tests/core/reference_search.py``), but

* cross-product joins are never built when a connected tree exists
  (:func:`~repro.core.enumeration.crossing_splits` prunes per split
  while enumerating),
* all trees of a leaf set are priced on one
  :class:`~repro.core.placement.PlacementTable`, so a subtree shared by
  many trees is priced once, and
* a placement is reconstructed for the winner only -- under a resource
  constraint, for each tree that beats the incumbent and so owes the
  joint ``validate`` (the two tests commute: same decisions, same order).

The counters written to ``stats`` and the span are the paper's *nominal*
search-space accounting (trees that exist, assignments they span), not
the work done here; work is what :mod:`repro.perf.profiler` counts.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.enumeration import all_join_trees, count_bushy_trees, crossing_splits
from repro.core.placement import PlacementResult, PlacementTable, nominal_assignments
from repro.query.plan import Leaf, PlanNode
from repro.query.query import Query

#: An objective must beat the incumbent by more than this to replace it,
#: so the first tree in enumeration order wins a tie.
_TIE = 1e-12


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
        span, stats, constraint = self.span, self.stats, self.constraint
        total = count_bushy_trees(len(views))
        span.incr("trees_enumerated", total)
        trees: list[PlanNode] = []
        if self.connected_only:
            trees = all_join_trees(views, crossing_splits(self.query, views))
            if trees:
                span.incr("pruned_cross_trees", total - len(trees))
        if not trees:
            trees = all_join_trees(views)
        table = PlacementTable(
            self.candidates, self.costs,
            {Leaf(view): positions[view] for view in views},
            self.flow, self.sink, tracer=self.tracer, constraint=constraint,
        )
        # Every tree over these leaves has the same number of joins.
        nominal = nominal_assignments(trees[0], len(self.candidates))
        incumbent = self.best.objective if self.best is not None else None
        winner: PlanNode | None = None
        for tree in trees:
            objective = table.objective(tree)
            stats["plans_examined"] += nominal
            stats["trees_examined"] += 1
            if constraint is not None and not math.isfinite(objective):
                span.incr("infeasible_trees")
                continue
            span.incr("plans_examined", nominal)
            if incumbent is not None and not objective < incumbent - _TIE:
                continue
            if constraint is not None:
                # Independently feasible operators can still jointly
                # overload a node; the per-plan check is the contract.
                result = table.place(tree)
                if not constraint.validate(tree, result.placement):
                    span.incr("infeasible_trees")
                    continue
                self.best = result
            incumbent, winner = objective, tree
        if winner is not None and constraint is None:
            self.best = table.place(winner)
