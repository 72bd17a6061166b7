"""Post-pass placement refinement by local search.

Both hierarchical algorithms commit operators level by level; once the
whole deployment is known, individual operators can sometimes move to
cheaper nodes without changing the join order (the classic
"hill-climbing on a fixed tree" move, related to the paper's future-work
interest in run-time plan migrations).  :func:`refine_placement`
performs exact single-operator relocations until a fixed point:

* the join *order* is preserved (only placements move);
* every accepted move strictly lowers the deployment's cost, so the
  result is never worse than the input;
* with ``candidates=None`` the search considers every network node --
  at that point the fixed tree's placement is globally optimal (equal to
  the tree-placement DP), so the interesting uses restrict candidates or
  bound iterations to model cheap incremental migration.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.cost import RateModel, deployment_cost
from repro.query.deployment import Deployment
from repro.query.plan import Join, PlanNode


def refine_placement(
    deployment: Deployment,
    costs: np.ndarray,
    rates: RateModel,
    candidates: Sequence[int] | None = None,
    max_rounds: int = 10,
) -> tuple[Deployment, int]:
    """Hill-climb single-operator relocations on a fixed plan.

    Args:
        deployment: The deployment to refine (not mutated).
        costs: All-pairs traversal-cost matrix.
        rates: Rate model for flow rates.
        candidates: Nodes operators may move to (default: all nodes in
            the cost matrix).
        max_rounds: Sweep limit; each sweep tries to move every join
            operator once.

    Returns:
        ``(refined_deployment, moves)`` where ``moves`` counts accepted
        relocations.  The refined cost is <= the input cost.
    """
    query = deployment.query
    plan = deployment.plan
    placement = dict(deployment.placement)
    nodes = np.arange(costs.shape[0]) if candidates is None else np.asarray(list(candidates))
    flow = rates.flow_rates(query, plan)

    # neighbours[j]: (other endpoint plan-node, rate of the connecting flow)
    # for each flow incident to join j, plus the sink edge for the root.
    parent: dict[PlanNode, PlanNode] = {}
    for join in plan.joins():
        for child in (join.left, join.right):
            parent[child] = join

    def incident(join: Join) -> list[tuple[PlanNode | None, float]]:
        edges: list[tuple[PlanNode | None, float]] = []
        for child in (join.left, join.right):
            edges.append((child, flow[child]))
        if join is plan:
            edges.append((None, flow[join]))  # None = the sink
        else:
            edges.append((parent[join], flow[join]))
        return edges

    moves = 0
    for _ in range(max_rounds):
        improved = False
        for join in plan.joins():
            current = placement[join]
            # cost of join's incident flows as a function of its node
            total = np.zeros(len(nodes))
            for other, rate in incident(join):
                other_node = query.sink if other is None else placement[other]
                total += rate * costs[other_node, nodes]
            best_idx = int(total.argmin())
            best_node = int(nodes[best_idx])
            here = float(
                sum(
                    rate * costs[query.sink if other is None else placement[other], current]
                    for other, rate in incident(join)
                )
            )
            if total[best_idx] < here - 1e-9:
                placement[join] = best_node
                moves += 1
                improved = True
        if not improved:
            break

    refined = Deployment(
        query=query,
        plan=plan,
        placement=placement,
        stats={**deployment.stats, "refinement_moves": moves},
    )
    # Local search must never lose; guard against accounting surprises.
    before = deployment_cost(deployment, costs, rates)
    after = deployment_cost(refined, costs, rates)
    if after > before + 1e-9:  # pragma: no cover - defensive
        return deployment, 0
    return refined, moves
