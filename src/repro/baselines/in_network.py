"""Zone-based network-aware placement (Ahmad & Cetintemel, VLDB 2004 spirit).

Another phased baseline: the static plan is fixed first; placement then
works over a flat partitioning of the network into ``zones`` (the
paper's comparison divides the network into 5 zones to correspond with
its ``max_cs = 32`` hierarchy on 128 nodes).  Placement is greedy and
two-phase per operator, bottom-up over the tree:

1. *zone selection* -- pick the zone whose representative minimizes the
   operator's estimated flow cost (children at their known positions,
   output pulled toward the sink);
2. *node refinement* -- pick the concrete node within the chosen zone by
   the same criterion.

Unlike the hierarchical algorithms, there is no recursion, no
query-splitting across partitions and no reuse-aware *planning* (reuse
enters only through the static plan phase), which is what the paper's
Figure 8 comparison isolates.
"""

from __future__ import annotations

from repro.baselines.plan_then_deploy import (
    best_static_tree,
    deploy_time_reuse_variants,
    reusable_views,
)
from repro.core.cost import RateModel
from repro.hierarchy.clustering import choose_medoid, kmeans
from repro.network.graph import Network
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Leaf, PlanNode
from repro.query.query import Query
from repro.utils import as_generator

#: Seed of the zone clustering's k-means.
ZONE_SEED = 0


class InNetworkPlanner:
    """Static plan + greedy zoned placement.

    Args:
        network: The physical network.
        rates: Rate model over the stream catalog.
        reuse: Let advertised views participate in the plan phase.
        zones: Number of network zones (paper comparison: 5).
    """

    name = "in-network"

    def __init__(
        self,
        network: Network,
        rates: RateModel,
        reuse: bool = True,
        zones: int = 5,
    ) -> None:
        if zones < 1:
            raise ValueError("need at least one zone")
        self.network = network
        self.rates = rates
        self.reuse = reuse
        self.zones = min(zones, network.num_nodes)
        costs = network.cost_matrix()
        from repro.network.embedding import classical_mds

        coords = classical_mds(costs, dim=min(3, max(1, network.num_nodes - 1)))
        groups = kmeans(coords, self.zones, seed=as_generator(ZONE_SEED))
        self.zone_members: list[list[int]] = groups
        self.zone_reps: list[int] = [choose_medoid(g, costs) for g in groups]

    def plan(self, query: Query, state: DeploymentState | None = None) -> Deployment:
        """Fix the static tree, then place greedily through zones.

        Reuse is deploy-time only: collapsed-subtree variants of the
        fixed order compete on realized cost.
        """
        from repro.core.cost import deployment_cost

        costs = self.network.cost_matrix()
        reusable = reusable_views(query, state) if self.reuse else {}
        static_tree, trees_examined = best_static_tree(query, self.rates)
        stats = {
            "algorithm": self.name,
            "trees_examined": trees_examined,
            "zones": len(self.zone_members),
            "plans_examined": trees_examined,
        }
        best: tuple[float, PlanNode, dict] | None = None
        for tree in deploy_time_reuse_variants(static_tree, reusable):
            placement, examined = self._place(query, tree, reusable, costs)
            stats["plans_examined"] += examined
            candidate = Deployment(query=query, plan=tree, placement=placement, stats=stats)
            cost = deployment_cost(candidate, costs, self.rates)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, tree, placement)
        assert best is not None
        _, tree, placement = best
        return Deployment(query=query, plan=tree, placement=placement, stats=stats)

    # ------------------------------------------------------------------
    def _place(
        self, query: Query, tree: PlanNode, reusable: dict, costs
    ) -> tuple[dict, int]:
        placement: dict = {}
        for leaf in tree.leaves():
            if leaf.is_base_stream:
                placement[leaf] = self.rates.source(leaf.stream)
            else:
                nodes = reusable.get(leaf.view)
                if not nodes:
                    raise ValueError(f"no advertisement for reused view {leaf.label}")
                placement[leaf] = min(nodes, key=lambda n: costs[n, query.sink])
        if isinstance(tree, Leaf):
            return placement, 0

        flow = self.rates.flow_rates(query, tree)
        examined = 0
        for join in tree.joins():  # post-order: children placed first
            child_pos = [placement[c] for c in (join.left, join.right)]
            child_rates = [flow[c] for c in (join.left, join.right)]
            out_rate = flow[join]

            def score(node: int) -> float:
                cost = sum(
                    r * costs[p, node] for r, p in zip(child_rates, child_pos)
                )
                return cost + out_rate * costs[node, query.sink]

            best_zone = min(range(len(self.zone_reps)), key=lambda z: score(self.zone_reps[z]))
            examined += len(self.zone_reps)
            members = self.zone_members[best_zone]
            placement[join] = min(members, key=score)
            examined += len(members)
        return placement, examined
