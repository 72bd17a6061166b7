"""Shared experiment plumbing.

Every figure's evaluation follows the same skeleton: build a network,
a hierarchy (or several, for cluster-size sweeps), generate a random
workload, deploy its queries *incrementally* with some optimizer
(later queries see earlier queries' operators through advertisements),
and read off the cumulative communication cost after each query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.cost import RateModel
from repro.core.optimizer import Optimizer, make_optimizer
from repro.hierarchy import AdvertisementIndex, Hierarchy, build_hierarchy
from repro.network.graph import Network
from repro.network.topology import transit_stub_by_size
from repro.query.deployment import Deployment, DeploymentState
from repro.utils import SeedLike, as_generator
from repro.workload.generator import Workload, WorkloadParams, generate_workload


@dataclass
class EvalEnv:
    """One evaluation environment: network + workload + hierarchies.

    Attributes:
        network: The generated transit-stub network.
        workload: The random workload bound to it.
        rates: Rate model over the workload's stream catalog.
        hierarchies: ``max_cs -> Hierarchy`` for every requested cluster
            size.
    """

    network: Network
    workload: Workload
    rates: RateModel
    hierarchies: dict[int, Hierarchy] = field(default_factory=dict)

    def hierarchy(self, max_cs: int) -> Hierarchy:
        """The hierarchy built with ``max_cs`` (must have been requested)."""
        return self.hierarchies[max_cs]

    def fresh_state(self) -> DeploymentState:
        """A new empty deployment state priced at current network costs."""
        return DeploymentState(
            self.network.cost_matrix(),
            self.rates.rate,
            self.rates.source,
            reuse_inflation=self.rates.reuse_rate_inflation,
        )

    def optimizer(self, name: str, max_cs: int | None = None, **kwargs) -> Optimizer:
        """Build a planner bound to this environment."""
        hierarchy = self.hierarchies.get(max_cs) if max_cs is not None else None
        if hierarchy is None and self.hierarchies:
            hierarchy = next(iter(self.hierarchies.values()))
        return make_optimizer(
            name, self.network, self.rates, hierarchy=hierarchy, **kwargs
        )


def build_env(
    num_nodes: int,
    workload: WorkloadParams | None = None,
    max_cs_values: Sequence[int] = (32,),
    seed: SeedLike = 0,
) -> EvalEnv:
    """Build a complete evaluation environment.

    Args:
        num_nodes: Network size (transit-stub).
        workload: Workload generator parameters.
        max_cs_values: Cluster sizes to pre-build hierarchies for.
        seed: Master seed; network/workload/hierarchies derive from it.
    """
    rng = as_generator(seed)
    net_seed = int(rng.integers(0, 2**31))
    network = transit_stub_by_size(num_nodes, seed=net_seed)
    wl = generate_workload(network, workload, seed=int(rng.integers(0, 2**31)))
    rates = wl.rate_model()
    hierarchies = {
        cs: build_hierarchy(network, max_cs=cs, seed=int(rng.integers(0, 2**31)))
        for cs in max_cs_values
    }
    return EvalEnv(network=network, workload=wl, rates=rates, hierarchies=hierarchies)


def run_incremental(
    optimizer: Optimizer,
    workload: Workload,
    state: DeploymentState,
    ads: AdvertisementIndex | None = None,
) -> tuple[list[float], list[Deployment]]:
    """Deploy the workload query by query; return cumulative costs.

    Returns ``(cumulative, deployments)`` where ``cumulative[i]`` is the
    total system cost after deploying queries ``0..i``.
    """
    cumulative: list[float] = []
    deployments: list[Deployment] = []
    for query in workload:
        deployment = optimizer.plan(query, state)
        state.apply(deployment)
        if ads is not None:
            ads.sync_from_state(state)
        cumulative.append(state.total_cost())
        deployments.append(deployment)
    return cumulative, deployments


def cumulative_costs(
    env: EvalEnv,
    optimizer_name: str,
    max_cs: int | None = None,
    reuse: bool = True,
    **kwargs,
) -> list[float]:
    """Convenience: fresh state + incremental run, returning the curve."""
    optimizer = env.optimizer(optimizer_name, max_cs=max_cs, reuse=reuse, **kwargs)
    state = env.fresh_state()
    curve, _ = run_incremental(optimizer, env.workload, state)
    return curve


def average_curves(curves: Sequence[Sequence[float]]) -> list[float]:
    """Pointwise mean of equal-length cumulative-cost curves."""
    if not curves:
        raise ValueError("no curves to average")
    arr = np.asarray(curves, dtype=np.float64)
    return list(arr.mean(axis=0))
