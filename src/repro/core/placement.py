"""Optimal placement of a fixed join tree via dynamic programming.

For a *fixed* tree, the communication cost decomposes over tree edges
(each flow's cost depends only on its two endpoints), so the optimal
assignment of operators to a candidate node set is computed exactly by a
bottom-up DP in ``O(num_ops * |candidates|^2)`` -- the same optimum as
the paper's exhaustive enumeration of ``|candidates|^ops`` assignments,
orders of magnitude cheaper.  The *nominal* search-space size (what the
paper counts in its scalability experiment) is reported separately by
:func:`nominal_assignments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import InfeasiblePlacementError
from repro.perf import profiler as _perf
from repro.query.plan import Join, Leaf, PlanNode


@dataclass
class PlacementResult:
    """Outcome of placing one tree.

    Attributes:
        placement: Chosen node for every subtree root (leaves included).
        cost: Total flow cost: every child-to-parent shipment plus the
            root-to-sink delivery when a sink was given.
        tree: The tree that was placed.
        objective: What the DP actually minimized.  Equal to ``cost``
            unless a resource constraint with a bi-criteria weight was
            active, in which case it additionally carries the load
            penalty (``cost`` stays pure communication either way).
    """

    placement: dict[PlanNode, int]
    cost: float
    tree: PlanNode
    objective: float | None = None

    def __post_init__(self) -> None:
        if self.objective is None:
            self.objective = self.cost


def nominal_assignments(tree: PlanNode, num_candidates: int) -> int:
    """Size of the assignment space the paper's exhaustive search scans.

    One choice of node per join operator: ``num_candidates ** num_joins``
    (at least 1 even for a pure-leaf tree).
    """
    return max(1, num_candidates) ** tree.num_joins


class PlacementTable:
    """Placement DP rows shared by every tree priced on one task.

    One table is fixed to a candidate set, a cost matrix, the leaves'
    allowed positions, a sink and (optionally) a resource constraint.  A
    row -- the cost of producing a subtree's output at each of its
    positions -- and the "ship the output to every candidate" vector
    derived from it are computed once per distinct subtree *object*, so
    trees that share subtrees (as the trees of one
    :func:`~repro.core.enumeration.all_join_trees` call do) pay only for
    the joins no earlier tree had.  Every row is built by the same
    operations in the same order whichever tree asks first, so an
    objective does not depend on what was priced before it.

    Args:
        candidates, costs, leaf_positions, sink, tracer, constraint: As
            for :func:`optimal_tree_placement`.
        rate_of: Output rate of a subtree (``rates.__getitem__`` of a
            :meth:`RateModel.flow_rates` mapping, or a
            :meth:`RateModel.flow_pricer`).
    """

    def __init__(
        self,
        candidates: Sequence[int],
        costs: np.ndarray,
        leaf_positions: Mapping[Leaf, Sequence[int]],
        rate_of: Callable[[PlanNode], float],
        sink: int | None,
        tracer=None,
        constraint=None,
    ) -> None:
        cand = np.asarray(list(candidates), dtype=np.intp)
        if cand.size == 0:
            raise ValueError("need at least one candidate node")
        self._cand = cand
        self._costs = costs
        self._leaf_positions = leaf_positions
        self._rate_of = rate_of
        self._sink = sink
        self._tracer = tracer
        self._constraint = constraint
        self._columns = np.arange(cand.size)
        # Cost of shipping between candidates: every join's output sits
        # on a candidate, so one slice serves every join-to-join edge.
        self._between = costs[cand[:, None], cand]
        # Keyed by id(); each entry holds its node, which keeps the id unique.
        # id(sub) -> (sub, positions, costs[positions x candidates], dp row)
        self._rows: dict[int, tuple] = {}
        # id(sub) -> (sub, cost of the output arriving at each candidate,
        #             the position index it is best shipped from)
        self._ships: dict[int, tuple] = {}
        # id(tree) -> (tree, best root position index, objective there)
        self._priced: dict[int, tuple] = {}

    def _row(self, sub: PlanNode) -> tuple:
        row = self._rows.get(id(sub))
        if row is not None:
            return row
        if isinstance(sub, Leaf):
            try:
                pos = np.asarray(list(self._leaf_positions[sub]), dtype=np.intp)
            except KeyError:
                raise KeyError(f"no positions given for leaf {sub.label}") from None
            if pos.size == 0:
                raise ValueError(f"leaf {sub.label} has an empty position set")
            row = (sub, pos, self._costs[pos[:, None], self._cand], np.zeros(pos.size))
        else:
            assert isinstance(sub, Join)
            total = np.zeros(self._cand.size)
            total += self._ship(sub.left)[1]
            total += self._ship(sub.right)[1]
            constraint = self._constraint
            if constraint is not None:
                penalty = constraint.join_penalty(sub, self._cand)
                if penalty is not None:
                    total = total + penalty
                mask = constraint.join_mask(sub, self._cand)
                if not mask.all():
                    total = np.where(mask, total, np.inf)
            prof = _perf.active()
            if prof is not None:
                prof.count("cost_evaluations", self._cand.size)
            row = (sub, self._cand, self._between, total)
        self._rows[id(sub)] = row
        return row

    def _ship(self, child: PlanNode) -> tuple:
        ship = self._ships.get(id(child))
        if ship is None:
            _, _, block, dp = self._row(child)
            # arrival[p, v]: produce at position p then ship to candidate v.
            arrival = dp[:, None] + self._rate_of(child) * block
            best = arrival.argmin(axis=0)
            ship = self._ships[id(child)] = (child, arrival[best, self._columns], best)
        return ship

    def objective(self, tree: PlanNode) -> float:
        """Cost of ``tree``'s optimal assignment (what the DP minimizes).

        ``inf`` when a constraint forbids every assignment.  Pricing a
        tree for the first time counts one placement on the tracer's
        current span and the profiler.
        """
        return self._price(tree)[2]

    def _price(self, tree: PlanNode) -> tuple:
        priced = self._priced.get(id(tree))
        if priced is not None:
            return priced
        states = tree.num_joins * self._cand.size
        if self._tracer is not None:
            self._tracer.incr("placements")
            self._tracer.incr("placement_dp_states", states)
        prof = _perf.active()
        if prof is not None:
            prof.count("placements")
        _, pos, _, dp = self._row(tree)
        if self._sink is not None:
            final = dp + self._rate_of(tree) * self._costs[pos, self._sink]
        else:
            final = dp
        best_idx = int(final.argmin())
        priced = self._priced[id(tree)] = (tree, best_idx, float(final[best_idx]))
        return priced

    def place(self, tree: PlanNode) -> PlacementResult:
        """The optimal assignment of ``tree`` itself.

        Raises:
            InfeasiblePlacementError: A constraint was given and no
                assignment keeps every operator's node under its bound.
        """
        _, best_idx, best_cost = self._price(tree)
        constraint = self._constraint
        if constraint is not None and not np.isfinite(best_cost):
            raise InfeasiblePlacementError(
                f"no placement of {tree.pretty()} keeps every node under its "
                f"utilization bound"
            )
        placement: dict[PlanNode, int] = {}

        def reconstruct(sub: PlanNode, pos_idx: int) -> None:
            placement[sub] = int(self._rows[id(sub)][1][pos_idx])
            if isinstance(sub, Join):
                for child in (sub.left, sub.right):
                    reconstruct(child, int(self._ships[id(child)][2][pos_idx]))

        reconstruct(tree, best_idx)
        if constraint is None:
            return PlacementResult(placement=placement, cost=best_cost, tree=tree)
        # Under a constraint the DP total may carry a load penalty; re-derive
        # the pure communication cost of the chosen assignment so downstream
        # accounting (deployment pricing, explanations) is unaffected.
        costs, rate_of = self._costs, self._rate_of
        comm = 0.0
        for join in tree.joins():
            node = placement[join]
            for child in (join.left, join.right):
                comm += rate_of(child) * float(costs[placement[child], node])
        if self._sink is not None:
            comm += rate_of(tree) * float(costs[placement[tree], self._sink])
        return PlacementResult(
            placement=placement, cost=comm, tree=tree, objective=best_cost
        )


def optimal_tree_placement(
    tree: PlanNode,
    candidates: Sequence[int],
    costs: np.ndarray,
    leaf_positions: Mapping[Leaf, Sequence[int]],
    rates: Mapping[PlanNode, float],
    sink: int | None,
    tracer=None,
    constraint=None,
) -> PlacementResult:
    """Optimally assign ``tree``'s operators to ``candidates``.

    A one-tree use of :class:`PlacementTable`; searches over many trees
    of one leaf set share a table instead (:mod:`repro.core.search`).

    Args:
        tree: The join tree to place.
        candidates: Nodes every *join operator* may be placed on.
        costs: All-pairs traversal-cost matrix over node ids used by
            ``candidates``/``leaf_positions``/``sink``.
        leaf_positions: Allowed node(s) for each leaf: a base stream's
            source, or the advertisement nodes of a reused view.  Every
            leaf of ``tree`` must be present.
        rates: Output rate of each subtree (as from
            :meth:`RateModel.plan_rates`).
        sink: Node the root output is delivered to, or ``None`` to skip
            delivery cost (the root output then simply materializes at
            the cheapest producing node).
        tracer: Optional :class:`repro.obs.tracer.Tracer`; placement is
            the innermost hot loop, so rather than opening a span per
            call it increments counters on the caller's current span
            (``placements``, ``placement_dp_states``).
        constraint: Optional
            :class:`~repro.resources.constraint.PlacementConstraint`.
            Candidates that would push a node past its utilization
            bound cost ``inf`` (whole subtrees route around them) and a
            bi-criteria load penalty joins the objective; the reported
            ``cost`` stays pure communication.

    Returns:
        The optimal :class:`PlacementResult`.

    Raises:
        InfeasiblePlacementError: ``constraint`` was given and no
            assignment keeps every operator's node under its bound.
    """
    table = PlacementTable(
        candidates, costs, leaf_positions, rates.__getitem__, sink,
        tracer=tracer, constraint=constraint,
    )
    return table.place(tree)


def brute_force_tree_placement(
    tree: PlanNode,
    candidates: Sequence[int],
    costs: np.ndarray,
    leaf_positions: Mapping[Leaf, Sequence[int]],
    rates: Mapping[PlanNode, float],
    sink: int | None,
) -> PlacementResult:
    """Literal enumeration of every operator assignment (for validation).

    Exponential in the number of joins; used by tests to certify that
    :func:`optimal_tree_placement` finds the same optimum.
    """
    from itertools import product

    joins = tree.joins()
    best_cost = float("inf")
    best: dict[PlanNode, int] | None = None
    leaf_opts = {leaf: list(leaf_positions[leaf]) for leaf in tree.leaves()}

    for join_assign in product(list(candidates), repeat=len(joins)):
        for leaf_assign in product(*(leaf_opts[l] for l in tree.leaves())):
            placement = dict(zip(joins, join_assign))
            placement.update(dict(zip(tree.leaves(), leaf_assign)))
            cost = 0.0
            for join in joins:
                node = placement[join]
                for child in (join.left, join.right):
                    cost += rates[child] * float(costs[placement[child], node])
            if sink is not None:
                cost += rates[tree] * float(costs[placement[tree], sink])
            if cost < best_cost - 1e-12:
                best_cost = cost
                best = placement
    assert best is not None
    return PlacementResult(placement=best, cost=best_cost, tree=tree)
