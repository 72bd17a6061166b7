"""The Relaxation placement algorithm (Pietzuch et al., ICDE 2006).

A phased baseline: the join order is fixed by the static plan phase,
then operators are placed by *spring relaxation* in a low-dimensional
cost space.  Every plan edge behaves like a spring whose stiffness is
the data rate flowing along it; pinned endpoints (sources, reused views,
the sink) hold their coordinates, and each operator iteratively moves to
the rate-weighted centroid of its neighbours.  After :data:`ITERATIONS`
rounds (the paper's experiments use 40), each operator maps to the
nearest physical node in the cost space.

The paper's comparison uses a 3-dimensional cost space; we build it by
classical MDS over the traversal-cost matrix
(:func:`repro.network.embedding.embed_network`).  Reuse is deploy-time
only: if the fixed order contains a subtree matching an advertised
view, the collapsed variant competes on realized cost.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.plan_then_deploy import (
    best_static_tree,
    deploy_time_reuse_variants,
    reusable_views,
)
from repro.core.cost import RateModel, deployment_cost
from repro.network.embedding import embed_network
from repro.network.graph import Network
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import Query

#: Cost-space dimensionality (the paper's comparison uses 3).
DIMENSIONS = 3
#: Relaxation rounds (the paper's experiments use 40).
ITERATIONS = 40


class RelaxationPlanner:
    """Static plan + spring-relaxation placement in a cost space.

    Args:
        network: The physical network.
        rates: Rate model over the stream catalog.
        reuse: Consider deploy-time reuse of matching subtrees.
    """

    name = "relaxation"

    def __init__(
        self,
        network: Network,
        rates: RateModel,
        reuse: bool = True,
    ) -> None:
        self.network = network
        self.rates = rates
        self.reuse = reuse
        self._coords: tuple[int, np.ndarray] | None = None

    def _cost_space(self) -> np.ndarray:
        if self._coords is None or self._coords[0] != self.network.version:
            coords = embed_network(self.network, dim=DIMENSIONS, metric="cost")
            self._coords = (self.network.version, coords)
        return self._coords[1]

    def plan(self, query: Query, state: DeploymentState | None = None) -> Deployment:
        """Fix the static tree, relax operator positions, snap to nodes."""
        reusable = reusable_views(query, state) if self.reuse else {}
        static_tree, trees_examined = best_static_tree(query, self.rates)
        stats = {
            "algorithm": self.name,
            "trees_examined": trees_examined,
            "iterations": ITERATIONS,
            "plans_examined": trees_examined
            + ITERATIONS * max(1, static_tree.num_joins),
        }
        costs = self.network.cost_matrix()
        best: tuple[float, PlanNode, dict] | None = None
        for tree in deploy_time_reuse_variants(static_tree, reusable):
            placement = self._place(query, tree, reusable)
            candidate = Deployment(query=query, plan=tree, placement=placement, stats=stats)
            cost = deployment_cost(candidate, costs, self.rates)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, tree, placement)
        assert best is not None
        _, tree, placement = best
        return Deployment(query=query, plan=tree, placement=placement, stats=stats)

    # ------------------------------------------------------------------
    def _place(self, query: Query, tree: PlanNode, reusable: dict) -> dict:
        """Relaxation placement of one tree; returns the full placement."""
        leaf_nodes: dict[Leaf, int] = {
            leaf: self._pin_leaf(query, leaf, reusable) for leaf in tree.leaves()
        }
        if isinstance(tree, Leaf):
            return dict(leaf_nodes)

        coords = self._cost_space()
        flow = self.rates.flow_rates(query, tree)
        joins = tree.joins()
        positions: dict[Join, np.ndarray] = {}
        for join in joins:  # post-order: children already positioned
            child_coords = [
                coords[leaf_nodes[c]] if isinstance(c, Leaf) else positions[c]
                for c in (join.left, join.right)
            ]
            positions[join] = np.mean(child_coords, axis=0)

        parent_of: dict[Join, Join] = {}
        for join in joins:
            for child in (join.left, join.right):
                if isinstance(child, Join):
                    parent_of[child] = join

        for _ in range(ITERATIONS):
            for join in joins:
                num = np.zeros(coords.shape[1])
                den = 0.0
                for child in (join.left, join.right):
                    w = flow[child]
                    pos = (
                        coords[leaf_nodes[child]]
                        if isinstance(child, Leaf)
                        else positions[child]
                    )
                    num += w * pos
                    den += w
                w_out = flow[join]
                out_pos = (
                    coords[query.sink] if join is tree else positions[parent_of[join]]
                )
                num += w_out * out_pos
                den += w_out
                if den > 0:
                    positions[join] = num / den

        placement: dict = dict(leaf_nodes)
        for join in joins:
            deltas = coords - positions[join][None, :]
            placement[join] = int((deltas**2).sum(axis=1).argmin())
        return placement

    def _pin_leaf(self, query: Query, leaf: Leaf, reusable: dict) -> int:
        if leaf.is_base_stream:
            return self.rates.source(leaf.stream)
        nodes = reusable.get(leaf.view)
        if not nodes:
            raise ValueError(f"no advertisement for reused view {leaf.label}")
        costs = self.network.cost_matrix()
        return min(nodes, key=lambda n: costs[n, query.sink])
