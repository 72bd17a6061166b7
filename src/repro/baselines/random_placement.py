"""Static plan + uniformly random placement (sanity floor).

Used by the Bottom-Up analysis: the paper argues Bottom-Up "can offer
better bounds than a random placement of the same query tree"; this
planner realizes that comparison point.
"""

from __future__ import annotations

from repro.baselines.plan_then_deploy import best_static_tree
from repro.core.cost import RateModel
from repro.network.graph import Network
from repro.query.deployment import Deployment, DeploymentState
from repro.query.query import Query
from repro.utils import SeedLike, as_generator

#: Seed of each planner's placement RNG (``None``: fresh entropy).
SEED: SeedLike = None


class RandomPlacement:
    """Volume-optimal static plan, operators on uniformly random nodes.

    Args:
        network: The physical network.
        rates: Rate model over the stream catalog.

    Each :meth:`plan` call draws fresh placements from an RNG seeded
    :data:`SEED` at construction.
    """

    name = "random"

    def __init__(self, network: Network, rates: RateModel) -> None:
        self.network = network
        self.rates = rates
        self._rng = as_generator(SEED)

    def plan(self, query: Query, state: DeploymentState | None = None) -> Deployment:
        """Fix the static tree, scatter its operators randomly."""
        del state  # the random baseline never reuses
        tree, trees_examined = best_static_tree(query, self.rates)
        nodes = self.network.nodes()
        placement: dict = {}
        for leaf in tree.leaves():
            placement[leaf] = self.rates.source(leaf.stream)
        for join in tree.joins():
            placement[join] = int(self._rng.choice(nodes))
        return Deployment(
            query=query,
            plan=tree,
            placement=placement,
            stats={
                "algorithm": self.name,
                "trees_examined": trees_examined,
                "plans_examined": trees_examined,
            },
        )
