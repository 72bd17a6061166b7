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
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from repro.errors import InfeasiblePlacementError
from repro.obs.tracer import incr, op_sink
from repro.query.plan import Leaf, PlanNode


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


class LevelDP:
    """The placement DP of many trees at once, a level at a time.

    The trees come as *rows* (:class:`~repro.core.enumeration.JoinProgram`):
    rows ``0 .. n - 1`` are the leaves, every later row joins two earlier
    ones, the rows of the last level are the roots.  A level is priced by
    a few array expressions, each the one-tree recurrence with a leading
    row axis: the same IEEE operations on the same operands, so every
    objective is bit-equal to the one-tree DP's
    (``tests/core/reference_search.py``), and a subtree many trees share
    is one row, priced once.  :meth:`price` fills the tables for one leaf
    set, :meth:`place` reads them.

    Args:
        candidates, costs, sink, constraint: As for
            :func:`optimal_tree_placement`.

    Attributes:
        binds: Whether the constraint can refuse or penalize anything on
            these candidates; if not, :meth:`price` runs the free DP.
    """

    def __init__(
        self,
        candidates: Sequence[int],
        costs: np.ndarray,
        sink: int | None,
        constraint=None,
    ) -> None:
        cand = np.asarray(list(candidates), dtype=np.intp)
        if cand.size == 0:
            raise ValueError("need at least one candidate node")
        self._cand = cand
        self._costs = costs
        self._sink = sink
        self._constraint = constraint
        self.binds = constraint is not None and constraint.binds(cand.tolist())

    @cached_property
    def _between(self) -> np.ndarray:
        # Cost of shipping between candidates: every join's output sits
        # on a candidate, so one slice serves every join-to-join edge (a
        # one-join tree has none, and never slices it).
        return self._costs[self._cand[:, None], self._cand]

    def price(
        self,
        positions: Sequence[Sequence[int]],
        levels: Sequence[tuple],
        rates: np.ndarray,
        root_rate: float | None,
    ) -> np.ndarray:
        """Fill the tables for one leaf set; the objective of every root
        (``inf``: no assignment keeps it under the constraint's bound).

        Args:
            positions: Allowed nodes of each leaf (a list), in row order.
            levels: ``(left rows, right rows, joins, sizes)`` per level;
                ``joins`` is read only when :attr:`binds`: what it prices,
                one per ``sizes`` consecutive rows (rows joining the same
                two source sets carry the same load).
            rates: Output rate of every row below the roots.
            root_rate: Output rate of a root (``None`` without a sink).

        Counts one placement per root on the installed tracer's current
        span and on the op channel.
        """
        cand, costs, constraint = self._cand, self._costs, self._constraint
        leaves = len(positions)
        width = max(map(len, positions))
        # Padded with the leaf's last node: no minimum moves, and no
        # first-minimum index either.
        pos = np.array(
            [nodes + nodes[-1:] * (width - len(nodes)) for nodes in positions], dtype=np.intp
        )
        roots = len(levels[-1][0]) if levels else 1
        joined = len(rates) - leaves + roots
        incr("placements", roots)
        incr("placement_dp_states", roots * (leaves - 1) * cand.size)
        ops = op_sink()
        if ops is not None:
            ops.count("placements", roots)
            if joined:
                ops.count("cost_evaluations", joined * cand.size)
        # dp[v, row - leaves]: cost of producing a join row's output at
        # candidate v; ship[v, row]: of that output (a leaf's too) arriving
        # at v from wherever it is best produced.  Rows run along the last
        # axis, the long one, so the element-wise passes stay contiguous.
        dp = np.empty((cand.size, joined))
        ship = np.empty((cand.size, len(rates)))
        if levels:
            nodes = cand
            # arrival[p, v, row]: produce at position p, ship to candidate v.
            ship[:, :leaves] = (
                costs[pos.T[:, None, :], cand[None, :, None]] * rates[:leaves]
            ).min(axis=0)
        else:  # a lone leaf is its own root
            total, nodes = np.zeros((width, 1)), pos[0]
        low = leaves
        for left, right, joins, sizes in levels:
            high = low + len(left)
            total = dp[:, low - leaves : high - leaves]
            np.add(ship.take(left, axis=1), ship.take(right, axis=1), out=total)
            if self.binds:
                penalties = [constraint.join_penalty(join, cand) for join in joins]
                if penalties[0] is not None:
                    total += np.repeat(np.transpose(penalties), sizes, axis=1)
                feasible = [constraint.join_mask(join, cand) for join in joins]
                total[~np.repeat(np.transpose(feasible), sizes, axis=1)] = np.inf
            if high <= len(rates):
                ship[:, low:high] = (
                    total[:, None, :] + self._between[:, :, None] * rates[low:high]
                ).min(axis=0)
            low = high
        if self._sink is not None:
            total = total + root_rate * costs[nodes, self._sink][:, None]
        self._tables = (positions, rates, root_rate, dp, total)
        return total.min(axis=0)

    def place(self, tree: PlanNode, rows: Mapping[PlanNode, int], root: int = 0) -> PlacementResult:
        """The optimal assignment of ``tree``, root number ``root`` of the
        leaf set priced last, whose subtrees are the rows ``rows``.

        Raises:
            InfeasiblePlacementError: A constraint was given and no
                assignment keeps every operator's node under its bound.
        """
        positions, rates, root_rate, dp, final = self._tables
        leaves = len(positions)
        cand, costs, between = self._cand, self._costs, self._between
        best_idx = int(final[:, root].argmin())
        best_cost = float(final[best_idx, root])
        constraint = self._constraint
        if constraint is not None and not np.isfinite(best_cost):
            raise InfeasiblePlacementError(
                f"no placement of {tree.pretty()} keeps every node under its "
                f"utilization bound"
            )
        placement: dict[PlanNode, int] = {}
        # Pre-order, left subtree first: an operator's candidate fixes the
        # column each child's choice is read from.
        stack = [(tree, best_idx)]
        while stack:
            sub, pos_idx = stack.pop()
            if isinstance(sub, Leaf):
                placement[sub] = int(positions[rows[sub]][pos_idx])
                continue
            placement[sub] = node = int(cand[pos_idx])
            for child in (sub.right, sub.left):
                row = rows[child]
                # The column of the level pass's ``arrival`` that ends at
                # ``node``; a leaf with one position has nothing to choose.
                if row >= leaves:
                    arrival = dp[:, row - leaves] + rates[row] * between[:, pos_idx]
                    column = int(arrival.argmin())
                elif len(positions[row]) == 1:
                    column = 0
                else:
                    column = int((rates[row] * costs[positions[row], node]).argmin())
                stack.append((child, column))
        if constraint is None:
            return PlacementResult(placement=placement, cost=best_cost, tree=tree)
        # Under a constraint the DP total may carry a load penalty; re-derive
        # the pure communication cost of the chosen assignment so downstream
        # accounting (deployment pricing, explanations) is unaffected.
        comm = 0.0
        for join in tree.joins():
            node = placement[join]
            for child in (join.left, join.right):
                comm += float(rates[rows[child]]) * float(costs[placement[child], node])
        if self._sink is not None:
            comm += root_rate * float(costs[placement[tree], self._sink])
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
    constraint=None,
) -> PlacementResult:
    """Optimally assign ``tree``'s operators to ``candidates``.

    A one-tree use of :class:`LevelDP` (a level per join, in post-order);
    searches over all trees of a leaf set price them together
    (:mod:`repro.core.search`).
    Placement is the innermost hot loop, so rather than opening a span
    per call it counts (``placements``, ``placement_dp_states``) on the
    installed tracer's current span.

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
    table = LevelDP(candidates, costs, sink, constraint=constraint)
    leaves, joins = tree.leaves(), tree.joins()
    positions = []
    for leaf in leaves:
        try:
            positions.append(list(leaf_positions[leaf]))
        except KeyError:
            raise KeyError(f"no positions given for leaf {leaf.label}") from None
        if not positions[-1]:
            raise ValueError(f"leaf {leaf.label} has an empty position set")
    subtrees = [*leaves, *joins]
    rows = {sub: row for row, sub in enumerate(subtrees)}
    table.price(
        positions,
        [(np.array([rows[j.left]]), np.array([rows[j.right]]), [j], 1) for j in joins],
        np.array([rates[sub] for sub in subtrees[:-1]]),
        None if sink is None else rates[tree],
    )
    return table.place(tree, rows)


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
