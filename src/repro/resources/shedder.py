"""Load shedding: the degradation path when nothing feasible fits.

When an admitted query has no feasible placement under the utilization
bound, the :class:`LoadShedder` decides whether evicting lighter
tenants' queries would make room.  Victims are chosen greedily among the
live queries that actually hold operators on the violated nodes, lowest
weight first (ties broken newest-deployed first, so long-running heavy
hitters survive), and only queries *strictly lighter* than the incoming
one are ever considered -- with uniform weights nothing is ever shed and
the incoming query parks instead.

A victim's removable load is exact, not estimated: an operator it shares
with other consumers stays alive when the victim retires (the deployment
state's reuse semantics), so only operators the victim exclusively owns
count toward freed capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.query.deployment import DeploymentState
from repro.query.query import Query
from repro.resources.capacity import Load, ZERO_LOAD
from repro.resources.footprint import OperatorFootprint


@dataclass
class ParkedQuery:
    """A query waiting for capacity to recover.

    Attributes:
        query: The parked query.
        lifetime: Its remaining lifetime at parking time (``None`` =
            run forever once re-admitted).
        weight: Its scheduling weight (re-admission is heaviest-first).
        reason: Why it was parked (infeasible placement / shed victim).
        parked_at: Tick it was parked (FIFO within one weight class).
        shed: Whether it was evicted while live (vs never deployed).
    """

    query: Query
    lifetime: float | None
    weight: float
    reason: str
    parked_at: float
    shed: bool = False


@dataclass
class ShedPlan:
    """Outcome of a victim search: who to evict to make room."""

    victims: list[str] = field(default_factory=list)
    freed: dict[int, Load] = field(default_factory=dict)


#: Hard cap on evictions per admission attempt (and on drift-repair
#: sheds per tick).
MAX_SHED_PER_ADMIT = 4


class LoadShedder:
    """Greedy lowest-weight-first victim selection."""

    def removable_loads(
        self,
        state: DeploymentState,
        footprint: OperatorFootprint,
        name: str,
    ) -> dict[int, Load]:
        """Per-node load that retiring ``name`` would actually free."""
        deployment = state.deployment(name)
        if deployment is None:
            return {}
        freed: dict[int, Load] = {}
        query = deployment.query
        for join in deployment.plan.joins():
            node = deployment.placement[join]
            sig = deployment.signature(join.sources)
            if state.queries_using(sig, node) - {name}:
                continue  # shared operator survives the retirement
            load = footprint.join_load(query, join.left.sources, join.right.sources)
            freed[node] = freed.get(node, ZERO_LOAD) + load
        return freed

    def plan_shed(
        self,
        state: DeploymentState,
        footprint: OperatorFootprint,
        incoming_weight: float,
        weight_of,
        feasible_with,
        protect: frozenset[str] = frozenset(),
    ) -> ShedPlan | None:
        """Find victims whose eviction makes the placement feasible.

        Args:
            state: The shard's live deployment state.
            footprint: Load estimator for victims' operators.
            incoming_weight: Weight of the query needing room; only
                strictly lighter queries are candidates.
            weight_of: ``weight_of(query_name) -> float``.
            feasible_with: ``feasible_with(freed) -> bool`` -- whether
                the pending placement fits once ``freed`` (a per-node
                :class:`Load` mapping) is released.
            protect: Query names never to evict.

        Returns:
            The minimal-by-greed :class:`ShedPlan`, or ``None`` when no
            admissible victim set restores feasibility.
        """
        live = [d.query.name for d in state.deployments]
        candidates = [
            name
            for name in live
            if name not in protect and weight_of(name) < incoming_weight - 1e-12
        ]
        if not candidates:
            return None
        # Lowest weight first; newest deployment first within a weight
        # class (application order is the recency order).
        order = {name: i for i, name in enumerate(live)}
        candidates.sort(key=lambda name: (weight_of(name), -order[name]))

        plan = ShedPlan()
        for name in candidates[:MAX_SHED_PER_ADMIT]:
            removable = self.removable_loads(state, footprint, name)
            plan.victims.append(name)
            for node, load in removable.items():
                plan.freed[node] = plan.freed.get(node, ZERO_LOAD) + load
            if feasible_with(plan.freed):
                return plan
        return None
