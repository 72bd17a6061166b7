"""Uniform optimizer facade.

Every planner in this package (the two hierarchical algorithms, the
optimal DP, and the plan-then-deploy baselines) exposes
``plan(query, state) -> Deployment``.  :func:`make_optimizer` builds any
of them by name with shared plumbing, and :class:`Optimizer` documents
the protocol for type-checkers and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.core.bottom_up import BottomUpOptimizer
from repro.core.cost import RateModel
from repro.core.exhaustive import OptimalPlanner
from repro.core.top_down import TopDownOptimizer
from repro.hierarchy.advertisements import AdvertisementIndex
from repro.hierarchy.hierarchy import Hierarchy
from repro.network.graph import Network
from repro.query.deployment import Deployment, DeploymentState
from repro.query.query import Query


@runtime_checkable
class Optimizer(Protocol):
    """Protocol all planners implement."""

    name: str

    def plan(self, query: Query, state: DeploymentState | None = None) -> Deployment:
        """Choose a plan and placement for ``query``.

        ``state`` carries already-deployed operators for reuse-aware
        planners; planners that ignore it accept and discard it.
        """
        ...  # pragma: no cover


@dataclass
class OptimizerResult:
    """A deployment together with the marginal cost it added.

    Produced by :func:`deploy_query` -- the one-stop helper that plans,
    applies and advertises.
    """

    deployment: Deployment
    marginal_cost: float


def deploy_query(
    optimizer: Optimizer,
    query: Query,
    state: DeploymentState,
) -> OptimizerResult:
    """Plan ``query`` and apply it to ``state``.

    This is the canonical incremental-deployment step the experiments
    repeat per query: later queries then see this query's operators as
    reusable derived streams.
    """
    deployment = optimizer.plan(query, state)
    marginal = state.apply(deployment)
    return OptimizerResult(deployment=deployment, marginal_cost=marginal)


def make_optimizer(
    name: str,
    network: Network,
    rates: RateModel,
    hierarchy: Hierarchy | None = None,
    ads: AdvertisementIndex | None = None,
    reuse: bool = True,
    **kwargs,
) -> Optimizer:
    """Build a planner by name.

    Args:
        name: One of ``"top-down"``, ``"bottom-up"``, ``"optimal"``,
            ``"relaxation"``, ``"in-network"``, ``"plan-then-deploy"``,
            ``"random"``.
        network: The physical network.
        rates: Rate model over the stream catalog.
        hierarchy: Required for the hierarchical algorithms.
        ads: Optional shared advertisement index (hierarchical planners).
        reuse: Enable operator reuse where the algorithm supports it.
        **kwargs: Forwarded to the planner's constructor.

    Raises:
        ValueError: Unknown name, or a missing required hierarchy.
    """
    key = name.lower().replace("_", "-")
    if key in ("top-down", "bottom-up"):
        if hierarchy is None:
            raise ValueError(f"{name!r} requires a hierarchy")
        cls = TopDownOptimizer if key == "top-down" else BottomUpOptimizer
        return cls(hierarchy, rates, ads=ads, reuse=reuse, **kwargs)
    if key == "optimal":
        return OptimalPlanner(network, rates, reuse=reuse, **kwargs)
    if key == "relaxation":
        from repro.baselines.relaxation import RelaxationPlanner

        return RelaxationPlanner(network, rates, reuse=reuse, **kwargs)
    if key == "in-network":
        from repro.baselines.in_network import InNetworkPlanner

        return InNetworkPlanner(network, rates, reuse=reuse, **kwargs)
    if key == "plan-then-deploy":
        from repro.baselines.plan_then_deploy import PlanThenDeploy

        return PlanThenDeploy(network, rates, reuse=reuse, **kwargs)
    if key == "random":
        from repro.baselines.random_placement import RandomPlacement

        return RandomPlacement(network, rates, **kwargs)
    raise ValueError(f"unknown optimizer {name!r}")
