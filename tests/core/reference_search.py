"""The literal search the shared-subplan search is checked against.

This is the planners' loop as it stood before :mod:`repro.core.search`
replaced it, kept verbatim as the oracle: enumerate *every* bushy tree,
drop the cross-product ones one tree at a time, then for each survivor
re-price every subtree (``flow_rates``), run a whole placement DP that
shares nothing with the previous tree's, reconstruct its placement, and
compare.  It is right by construction and does ~10x the work, which is
why the shipped search does not work this way.

:class:`ReferenceTreeSearch` has :class:`repro.core.search.TreeSearch`'s
interface after its first argument (the rate model the literal loop
re-prices from), so ``functools.partial(ReferenceTreeSearch, rates)``
can stand in for ``TreeSearch`` inside either planner.  Its
``add_leaf_sets`` is the literal loop over a task's alternatives: one
whole per-tree search per leaf set, in order.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.enumeration import tree_is_connected
from repro.core.placement import PlacementResult, nominal_assignments
from repro.errors import InfeasiblePlacementError, PlanningError
from repro.obs.tracer import count, incr
from repro.query.plan import Join, Leaf, PlanNode


def reference_all_join_trees(views) -> list[PlanNode]:
    """Every unordered bushy tree over ``views``, cross products included."""
    leaves = [Leaf(frozenset(v)) for v in views]
    trees = _trees_over(tuple(range(len(leaves))), leaves, {})
    count("trees_enumerated", len(trees))
    return trees


def _trees_over(indices, leaves, memo) -> list[PlanNode]:
    if indices in memo:
        return memo[indices]
    if len(indices) == 1:
        result: list[PlanNode] = [leaves[indices[0]]]
        memo[indices] = result
        return result
    anchor = indices[0]
    rest = indices[1:]
    result = []
    # Every split is generated once by requiring the anchor on the left.
    for mask in range(1 << len(rest)):
        left = (anchor,) + tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
        right = tuple(rest[i] for i in range(len(rest)) if not mask >> i & 1)
        if not right:
            continue
        for l_tree in _trees_over(left, leaves, memo):
            for r_tree in _trees_over(right, leaves, memo):
                result.append(Join(l_tree, r_tree))
    memo[indices] = result
    return result


def reference_flow_rates(rates, query, plan: PlanNode) -> dict[PlanNode, float]:
    """Shipping rate of every subtree, each priced from scratch."""
    out = {}
    for sub in plan.subtrees():
        rate = rates.rate_for(query, sub.sources)
        if isinstance(sub, Leaf) and not sub.is_base_stream:
            rate *= rates.reuse_rate_inflation
        out[sub] = rate
    return out


def reference_tree_placement(
    tree: PlanNode,
    candidates: Sequence[int],
    costs: np.ndarray,
    leaf_positions: Mapping[Leaf, Sequence[int]],
    rates: Mapping[PlanNode, float],
    sink: int | None,
    constraint=None,
) -> PlacementResult:
    """The one-tree placement DP, every table rebuilt per call."""
    cand = np.asarray(list(candidates), dtype=np.intp)
    if cand.size == 0:
        raise ValueError("need at least one candidate node")
    incr("placements")
    incr("placement_dp_states", tree.num_joins * cand.size)
    count("placements")
    count("cost_evaluations", tree.num_joins * cand.size)

    # dp[node] over that node's *position set*: cost of producing the
    # subtree's output at the position (excluding shipment to parent).
    positions: dict[PlanNode, np.ndarray] = {}
    dp: dict[PlanNode, np.ndarray] = {}
    # For reconstruction: per join, per candidate index, the chosen
    # position index of each child.
    choice: dict[tuple[Join, int], np.ndarray] = {}

    for sub in tree.subtrees():
        if isinstance(sub, Leaf):
            try:
                pos = np.asarray(list(leaf_positions[sub]), dtype=np.intp)
            except KeyError:
                raise KeyError(f"no positions given for leaf {sub.label}") from None
            if pos.size == 0:
                raise ValueError(f"leaf {sub.label} has an empty position set")
            positions[sub] = pos
            dp[sub] = np.zeros(pos.size)
            continue
        assert isinstance(sub, Join)
        total = np.zeros(cand.size)
        for side, child in ((0, sub.left), (1, sub.right)):
            child_pos = positions[child]
            rate = rates[child]
            # arrival[p, v]: produce at position p then ship to candidate v.
            arrival = dp[child][:, None] + rate * costs[np.ix_(child_pos, cand)]
            best = arrival.argmin(axis=0)
            total += arrival[best, np.arange(cand.size)]
            choice[(sub, side)] = best
        if constraint is not None:
            penalty = constraint.join_penalty(sub, cand)
            if penalty is not None:
                total = total + penalty
            mask = constraint.join_mask(sub, cand)
            if not mask.all():
                total = np.where(mask, total, np.inf)
        positions[sub] = cand
        dp[sub] = total

    root_pos = positions[tree]
    root_dp = dp[tree]
    if sink is not None:
        final = root_dp + rates[tree] * costs[root_pos, sink]
    else:
        final = root_dp
    best_idx = int(final.argmin())
    best_cost = float(final[best_idx])
    if constraint is not None and not np.isfinite(best_cost):
        raise InfeasiblePlacementError(
            f"no placement of {tree.pretty()} keeps every node under its "
            f"utilization bound"
        )

    placement: dict[PlanNode, int] = {}

    def reconstruct(sub: PlanNode, pos_idx: int) -> None:
        placement[sub] = int(positions[sub][pos_idx])
        if isinstance(sub, Join):
            for side, child in ((0, sub.left), (1, sub.right)):
                reconstruct(child, int(choice[(sub, side)][pos_idx]))

    reconstruct(tree, best_idx)
    if constraint is None:
        return PlacementResult(placement=placement, cost=best_cost, tree=tree)
    # Under a constraint the DP total may carry a load penalty; re-derive
    # the pure communication cost of the chosen assignment so downstream
    # accounting (deployment pricing, explanations) is unaffected.
    comm = 0.0
    for join in tree.joins():
        node = placement[join]
        for child in (join.left, join.right):
            comm += rates[child] * float(costs[placement[child], node])
    if sink is not None:
        comm += rates[tree] * float(costs[placement[tree], sink])
    return PlacementResult(
        placement=placement, cost=comm, tree=tree, objective=best_cost
    )



class ReferenceTreeSearch:
    """The per-tree loop behind :class:`repro.core.search.TreeSearch`'s API."""

    def __init__(
        self, rates, query, candidates, costs, flow, sink, connected_only,
        stats, span, constraint=None,
    ) -> None:
        self.rates = rates
        self.query = query
        self.candidates = candidates
        self.costs = costs
        self.sink = sink
        self.connected_only = connected_only
        self.stats = stats
        self.span = span
        self.constraint = constraint
        self.best: PlacementResult | None = None

    def add_leaf_sets(self, alternatives, what="task") -> PlacementResult:
        """One :meth:`add_leaf_set` per alternative, lone leaves included;
        an alternative with a view available nowhere is skipped."""
        span = self.span
        span.incr("leaf_set_alternatives", len(alternatives))
        if len(alternatives) > 1:
            span.incr("reuse_groupings", len(alternatives) - 1)
        for positions in alternatives:
            if not all(positions.values()):
                span.incr("infeasible_leaf_sets")
                continue
            self.add_leaf_set(list(positions), positions)
        if self.best is None:
            views = [sorted(view) for view in alternatives[0]]
            if self.constraint is not None:
                raise InfeasiblePlacementError(
                    f"no feasible placement for {what} over {views} under the "
                    f"utilization bound"
                )
            raise PlanningError(f"no feasible plan for {what} over {views}")
        return self.best

    def add_leaf_set(self, views, positions) -> None:
        query, candidates, stats, span = self.query, self.candidates, self.stats, self.span
        constraint = self.constraint
        trees = reference_all_join_trees(views)
        span.incr("trees_enumerated", len(trees))
        if self.connected_only:
            connected = [t for t in trees if tree_is_connected(query, t)]
            if connected:
                span.incr("pruned_cross_trees", len(trees) - len(connected))
                trees = connected
        for tree in trees:
            rates = reference_flow_rates(self.rates, query, tree)
            leaf_positions = {leaf: positions[leaf.view] for leaf in tree.leaves()}
            try:
                result = reference_tree_placement(
                    tree, candidates, self.costs, leaf_positions, rates,
                    sink=self.sink, constraint=constraint,
                )
            except InfeasiblePlacementError:
                stats["plans_examined"] += nominal_assignments(tree, len(candidates))
                stats["trees_examined"] += 1
                span.incr("infeasible_trees")
                continue
            stats["plans_examined"] += nominal_assignments(tree, len(candidates))
            stats["trees_examined"] += 1
            span.incr("plans_examined", nominal_assignments(tree, len(candidates)))
            if constraint is not None and not constraint.validate(
                tree, result.placement
            ):
                span.incr("infeasible_trees")
                continue
            if self.best is None or result.objective < self.best.objective - 1e-12:
                self.best = result
