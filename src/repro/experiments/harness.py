"""Shared experiment plumbing.

Every figure's evaluation follows the same skeleton: build a world
(:func:`repro.workload.build_world`: network, workload, and a hierarchy
per cluster size), deploy its queries *incrementally* with some
optimizer (later queries see earlier queries' operators through
advertisements), and read off the cumulative communication cost after
each query.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.optimizer import Optimizer
from repro.query.deployment import Deployment, DeploymentState
from repro.workload.generator import Workload
from repro.workload.world import World


def run_incremental(
    optimizer: Optimizer,
    workload: Workload,
    state: DeploymentState,
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
        cumulative.append(state.total_cost())
        deployments.append(deployment)
    return cumulative, deployments


def cumulative_costs(
    env: World,
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
