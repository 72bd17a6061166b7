"""The re-optimization decision: when is a migration worth its cost?

Fresh statistics make a deployed query's *current* cost observable (its
flows re-priced under the live :class:`~repro.core.cost.RateModel`) and
a *candidate* cost computable (re-plan against a shadow of the world
without this query).  But a migration is not free: moved operators ship
their window state across the network and the query stalls through the
cutover.  :class:`ReoptPolicy` applies the standard amortization
argument -- migrate only when the cost saving, accumulated over a
configurable ``horizon`` of unit times, exceeds the one-shot state
transfer cost:

    (current_cost - candidate_cost) * horizon  >  transfer_cost + epsilon

with a relative-gain floor (``min_relative_gain``) acting as decision
hysteresis: a candidate that is only marginally cheaper never triggers,
so estimate noise cannot cause migration flapping.

Safety rules the policy enforces before any arithmetic:

* a query whose operators other queries *reuse* is never migrated --
  undeploying it would tear the provider out from under its consumers
  (see :meth:`DeploymentState.undeploy`'s caveat);
* the candidate is planned against a shadow state with the query
  removed, so it can only lean on operators that will still exist after
  the old deployment is torn down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.adaptive.diff import MigrationDiff, diff_deployments
from repro.core.cost import RateModel
from repro.errors import InfeasiblePlacementError
from repro.query.deployment import Deployment, DeploymentState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.adaptive.loop import AdaptivityConfig


@dataclass
class ReoptDecision:
    """Outcome of evaluating one deployed query.

    Attributes:
        query: The query evaluated.
        migrate: Whether the policy recommends migrating.
        reason: Human-readable justification (also keyed in metrics).
        current_cost: The deployment's cost under fresh statistics.
        candidate_cost: The re-planned candidate's cost (``nan`` when no
            candidate was produced, e.g. the query is a pinned provider).
        migration_cost: One-shot state-transfer cost of the diff.
        amortized_gain: ``(current - candidate) * horizon``.
        diff: The minimal migration (``None`` when not evaluated).
        candidate: The candidate deployment (``None`` when not planned).
    """

    query: str
    migrate: bool
    reason: str
    current_cost: float = 0.0
    candidate_cost: float = float("nan")
    migration_cost: float = 0.0
    amortized_gain: float = 0.0
    diff: MigrationDiff | None = None
    candidate: Deployment | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form, diff summarized."""
        return {
            "query": self.query,
            "migrate": self.migrate,
            "reason": self.reason,
            "current_cost": self.current_cost,
            "candidate_cost": self.candidate_cost,
            "migration_cost": self.migration_cost,
            "amortized_gain": self.amortized_gain,
            "moved_operators": len(self.diff.moved) if self.diff else 0,
        }


class ReoptPolicy:
    """Evaluates deployed queries against fresh statistics.

    Args:
        config: The adaptivity knobs; the policy reads ``horizon``,
            ``min_relative_gain`` and ``bytes_per_tuple``.
        optimizer: The planner producing candidates (the same optimizer
            the service plans new queries with, so candidates reflect
            the deployment strategy in force).
        rates: The live rate model (fresh statistics).
    """

    def __init__(self, config: "AdaptivityConfig", optimizer, rates: RateModel) -> None:
        self.config = config
        self.optimizer = optimizer
        self.rates = rates
        self.evaluations = 0

    def pinned_by_reuse(self, state: DeploymentState, deployment: Deployment) -> bool:
        """Whether other queries consume operators this query created."""
        name = deployment.query.name
        for join in deployment.plan.joins():
            sig = deployment.signature(join.sources)
            if state.queries_using(sig, deployment.placement[join]) - {name}:
                return True
        return False

    def evaluate(
        self,
        state: DeploymentState,
        deployment: Deployment,
        costs: np.ndarray,
    ) -> ReoptDecision:
        """Decide whether ``deployment`` should chase the fresh stats.

        The caller must have re-priced the state's flows under the live
        rate model first (``DeploymentState.recompute_rates``), so
        ``query_cost`` reflects what the deployment costs *now*.
        """
        self.evaluations += 1
        name = deployment.query.name
        current = state.query_cost(name)
        if self.pinned_by_reuse(state, deployment):
            return ReoptDecision(
                query=name,
                migrate=False,
                reason="pinned: operators reused by other queries",
                current_cost=current,
            )
        shadow = state.clone()
        shadow.undeploy(name)
        try:
            candidate = self.optimizer.plan(deployment.query, shadow)
        except InfeasiblePlacementError as exc:
            # A resource-constrained planner may find no room to move to.
            return ReoptDecision(
                query=name, migrate=False, reason=str(exc), current_cost=current
            )
        candidate_cost = shadow.apply(candidate)
        diff = diff_deployments(
            deployment, candidate, self.rates, self.config.bytes_per_tuple
        )
        decision = ReoptDecision(
            query=name,
            migrate=False,
            reason="",
            current_cost=current,
            candidate_cost=candidate_cost,
            diff=diff,
            candidate=candidate,
        )
        if diff.is_noop:
            decision.reason = "candidate identical to current deployment"
            return decision
        gain = current - candidate_cost
        if gain <= 0 or (current > 0 and gain / current < self.config.min_relative_gain):
            decision.reason = (
                f"gain below floor ({gain:.4g} vs "
                f"{self.config.min_relative_gain:.0%} of {current:.4g})"
            )
            return decision
        decision.migration_cost = diff.transfer_cost(costs)
        decision.amortized_gain = gain * self.config.horizon
        if decision.amortized_gain <= decision.migration_cost:
            decision.reason = (
                f"not amortized: saving {decision.amortized_gain:.4g} over "
                f"horizon {self.config.horizon:g} < transfer "
                f"{decision.migration_cost:.4g}"
            )
            return decision
        decision.migrate = True
        decision.reason = (
            f"amortized: saving {decision.amortized_gain:.4g} > transfer "
            f"{decision.migration_cost:.4g}"
        )
        return decision
