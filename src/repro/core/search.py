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
  a subtree shared by many trees being one row, and the programs of
  all of a task's leaf sets are stacked into one such pass
  (:func:`~repro.core.enumeration.layout`), and
* ``Join`` nodes and a placement are built for the task's winner only --
  under a resource constraint that can bind on the task's candidates,
  for each tree that beats the incumbent and so owes the joint
  ``validate`` (the two tests commute: same decisions, same order).  On
  candidates the constraint certifies cold the masks, penalties and
  joint checks could refuse nothing, so none is built or run.
* a lone view (no join) is priced in scalars, and so is a leaf set of two
  views (one tree, one join) unless the constraint binds
  (:meth:`TreeSearch._price_lone`, :meth:`TreeSearch._price_pair`): the
  level pass's IEEE operations on their one row.

The counters written to ``stats`` and the span are the paper's *nominal*
search-space accounting (trees that exist, assignments they span), not
the work done here; work is what the op channel counts
(:func:`repro.obs.tracer.count`).
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.enumeration import count_bushy_trees, join_program, layout, view_adjacency
from repro.core.placement import LevelDP, PlacementResult
from repro.errors import InfeasiblePlacementError, PlanningError
from repro.obs.tracer import op_sink
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


class _LeafSet:
    """One alternative: its program (connected trees, else every tree)
    and, once priced, each tree's objective and how to build it."""

    __slots__ = ("views", "positions", "leaves", "program", "pruned", "objectives", "build")

    def __init__(self, positions, query: Query, connected_only: bool) -> None:
        views = list(positions)
        self.views, self.positions, self.leaves = views, positions, [Leaf(v) for v in views]
        self.program = self.pruned = None
        if connected_only:
            self.program = join_program(len(views), view_adjacency(query, views))
            if self.program.trees:
                self.pruned = count_bushy_trees(len(views)) - self.program.trees
        if self.pruned is None:
            self.program = join_program(len(views))


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
        span: The task's span (nominal search counters), the installed
            tracer's current span.
        constraint: Optional
            :class:`~repro.resources.constraint.PlacementConstraint`.
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
        constraint=None,
    ) -> None:
        self.query = query
        self.costs = costs
        self.flow = flow
        self.sink = sink
        self.connected_only = connected_only
        self.stats = stats
        self.span = span
        self.constraint = constraint
        self._table = LevelDP(candidates, costs, sink, constraint=constraint)
        self._nodes = [int(node) for node in candidates]

    def add_leaf_sets(
        self,
        alternatives: Sequence[Mapping[frozenset[str], Sequence[int]]],
        what: str = "task",
    ) -> PlacementResult:
        """The cheapest feasible result over every tree of every leaf set.

        Each alternative maps its views, in leaf order, to the nodes they
        can be read at; the first is the task's inputs as given, and an
        alternative with a view available nowhere is infeasible.  Ties go
        to the first alternative, then the first tree (``_TIE``); ``what``
        names the task in an error.

        Raises:
            InfeasiblePlacementError: Under a constraint, nothing is
                feasible.
            PlanningError: Without one, nothing is feasible.
        """
        span, binds = self.span, self._table.binds
        span.incr("leaf_set_alternatives", len(alternatives))
        if len(alternatives) > 1:
            span.incr("reuse_groupings", len(alternatives) - 1)
        sets = [
            _LeafSet(pos, self.query, self.connected_only) if all(pos.values()) else None
            for pos in alternatives
        ]
        stacked = []
        for leaf_set in filter(None, sets):
            if len(leaf_set.views) == 1:
                self._price_lone(leaf_set)
            elif len(leaf_set.views) == 2 and not binds:
                self._price_pair(leaf_set)
            else:
                stacked.append(leaf_set)
        if stacked:
            self._price_stacked(stacked)
        best = self._scan(sets)
        if best is None:
            views = [sorted(view) for view in alternatives[0]]
            if self.constraint is not None:
                raise InfeasiblePlacementError(
                    f"no feasible placement for {what} over {views} under the "
                    f"utilization bound"
                )
            raise PlanningError(f"no feasible plan for {what} over {views}")
        return best

    def _price_stacked(self, stacked: list[_LeafSet]) -> None:
        """Price the trees of every leaf set in ``stacked`` in one level
        pass over their stacked programs."""
        flow, sink, table = self.flow, self.sink, self._table
        shape = layout(tuple(ls.program for ls in stacked))
        rates, covers = [], []
        for ls in stacked:
            # cover[mask]: the first tree over the mask, as far as pricing
            # looks -- the one whose ``sources`` the per-tree loop asks a
            # rate for first.
            cover: dict[int, object] = {1 << i: leaf for i, leaf in enumerate(ls.leaves)}
            for mask, splits in ls.program.blocks.items():
                left, right = splits[0]
                cover[mask] = _Unbuilt(cover[left], cover[right])
            rates += [flow(cover[mask]) for mask in ls.program.below]
            rates.append(flow(cover[(1 << len(ls.views)) - 1]) if sink is not None else 0.0)
            covers.append(cover)
        joins = None
        if table.binds:
            joins = [
                [_Unbuilt(covers[i][left], covers[i][right]) for i, left, right in level]
                for level in shape.splits
            ]
        objectives = table.price(
            shape,
            [list(ls.positions[view]) for ls in stacked for view in ls.views],
            np.array(rates).take(shape.rate_index),
            joins,
        ).tolist()
        ops = op_sink()
        if ops is not None:
            ops.count("search_array_passes", len(shape.levels) + 1)
        leaves = [leaf for ls in stacked for leaf in ls.leaves]
        for i, ls in enumerate(stacked):
            first = shape.first_root[i]
            ls.objectives = objectives[first : shape.first_root[i + 1]]

            def build(index: int, first=first) -> PlacementResult:
                rows: dict[PlanNode, int] = {}
                tree = shape.tree(leaves, first + index, rows)
                return table.place(tree, rows, first + index)

            ls.build = build

    def _price_lone(self, ls: _LeafSet) -> None:
        """A lone view deploys no join: it ships from its first cheapest position."""
        (leaf,) = ls.leaves
        positions = ls.positions[leaf.view]
        objective, at = 0.0, positions[0]
        if self.sink is not None:
            objective, at = _nearest(positions, self.sink, self.flow(leaf), self.costs.item)
        ls.objectives = [objective]
        ls.build = lambda index: PlacementResult({leaf: int(at)}, cost=objective, tree=leaf)

    def _price_pair(self, ls: _LeafSet) -> None:
        """The one tree over two views, priced in scalars.

        Per candidate ``v``, in candidate order, ``ship_a + ship_b`` (plus
        ``root_rate * C[v, sink]``), each ``ship`` the first minimum of
        ``C[p, v] * rate`` over the leaf's positions: the operations
        :meth:`LevelDP.price` performs on the one row, in its order, and
        the first minima :meth:`LevelDP.place` resolves.
        """
        sink, nodes, item = self.sink, self._nodes, self.costs.item
        ops = op_sink()
        if ops is not None:
            ops.count("cost_evaluations", len(nodes))
        leaves = ls.leaves
        rate_a, rate_b = self.flow(leaves[0]), self.flow(leaves[1])
        root_rate = self.flow(_Unbuilt(*leaves)) if sink is not None else None
        pos_a, pos_b = ls.positions[ls.views[0]], ls.positions[ls.views[1]]
        objective = chosen = None
        for node in nodes:
            ship_a, at_a = _nearest(pos_a, node, rate_a, item)
            ship_b, at_b = _nearest(pos_b, node, rate_b, item)
            total = ship_a + ship_b
            if sink is not None:
                total = total + root_rate * item(node, sink)
            if chosen is None or total < objective:
                objective, chosen = total, (node, at_a, at_b)
        ls.objectives = [objective]

        def build(index: int) -> PlacementResult:
            tree = Join(*leaves)
            node, at_a, at_b = chosen
            if tree.left is not leaves[0]:
                at_a, at_b = at_b, at_a
            # With no penalty (the constraint cannot bind) the communication
            # cost ``LevelDP.place`` re-derives under a constraint is this
            # objective: ``0.0 + ship`` is ``ship``, and the two ships commute.
            return PlacementResult(
                placement={tree: node, tree.left: int(at_a), tree.right: int(at_b)},
                cost=objective,
                tree=tree,
            )

        ls.build = build

    def _scan(self, sets: list[_LeafSet | None]) -> PlacementResult | None:
        """Replay the incumbent rule over every objective, alternative by
        alternative, writing the counters in the order the per-tree loop
        first meets them; build the winner (each would-be incumbent, when
        the constraint binds and it owes the joint ``validate``)."""
        span, stats = self.span, self.stats
        constraint = self.constraint if self._table.binds else None
        ops = op_sink()

        def build(ls: _LeafSet, index: int) -> PlacementResult:
            if ops is not None:
                ops.count("joins_built", len(ls.views) - 1)
            return ls.build(index)

        best: PlacementResult | None = None
        bound, winner = math.inf, None
        for ls in sets:
            if ls is None:
                span.incr("infeasible_leaf_sets")
                continue
            views, objectives = ls.views, ls.objectives
            span.incr("trees_enumerated", count_bushy_trees(len(views)))
            if ls.pruned is not None:
                span.incr("pruned_cross_trees", ls.pruned)
            if ops is not None:
                ops.count("trees_enumerated", len(objectives))
                ops.count("placements", len(objectives))
            span.incr("placements", len(objectives))
            span.incr("placement_dp_states", len(objectives) * (len(views) - 1) * len(self._nodes))
            # Every tree over these leaves has the same number of joins.  A
            # tree the constraint's masks leave no assignment reads ``inf``.
            nominal = max(1, len(self._nodes)) ** (len(views) - 1)
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
            for index, objective in enumerate(objectives):
                if not objective < bound:
                    continue
                if constraint is not None:
                    # Independently feasible operators can still jointly
                    # overload a node; the per-plan check is the contract.
                    result = build(ls, index)
                    if not constraint.validate(result.tree, result.placement):
                        span.incr("infeasible_trees")
                        continue
                    best = result
                bound, winner = objective - _TIE, (ls, index)
        if winner is not None and constraint is None:
            best = build(*winner)
        return best
