"""Analytical results: Lemma 1, the beta ratio, and Theorems 1-4.

These formulas drive the "analytical bounds" series of the paper's
scalability experiment (Figure 9) and the property tests that check the
implementation against the theory:

* Lemma 1   -- size of the exhaustive joint search space.
* Theorem 1 -- hierarchy cost-estimate slack ``sum_{i<l} 2 d_i``.
* Theorem 2 -- Top-Down search space <= beta * exhaustive.
* Theorem 3 -- Top-Down sub-optimality bound.
* Theorem 4 -- Bottom-Up search space <= beta * exhaustive.

Note on Lemma 1's join-order count: the paper's polynomial factor
``K(K-1)(K+1)/6`` (implemented verbatim as :func:`paper_join_orders`)
differs from the true number of unordered bushy trees ``(2K-3)!!``
(:func:`repro.core.enumeration.count_bushy_trees`); see DESIGN.md.  All
"analytical" curves use the paper's formula, all actual enumeration
counters use the true count.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def paper_join_orders(k: int) -> float:
    """The paper's join-order count ``K(K-1)(K+1)/6`` from Lemma 1."""
    if k < 2:
        raise ValueError("Lemma 1 requires K > 1")
    return k * (k - 1) * (k + 1) / 6.0


def exhaustive_space(k: int, n: int) -> float:
    """Lemma 1: ``O_exhaustive = K(K-1)(K+1)/6 * N^(K-1)``.

    Args:
        k: Number of sources the query joins (> 1).
        n: Number of network nodes.
    """
    if k == 1:
        return 1.0
    if n < 1:
        raise ValueError("need at least one node")
    return paper_join_orders(k) * float(n) ** (k - 1)


def hierarchy_height(n: int, max_cs: int) -> int:
    """Height of a hierarchy over ``n`` nodes with cluster size ``max_cs``.

    ``h ~ ceil(log_{max_cs} N) + 1`` levels exist: level 1 holds the
    physical nodes, each further level the coordinators of the one
    below, until a single cluster remains.  Matches the construction in
    :mod:`repro.hierarchy.hierarchy` for balanced clusterings.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if max_cs < 2:
        raise ValueError("max_cs must be at least 2")
    height = 1
    count = n
    while count > max_cs:
        count = math.ceil(count / max_cs)
        height += 1
    return height


def beta(k: int, n: int, max_cs: int, height: int | None = None) -> float:
    """The paper's beta: ``h * (max_cs / N)^(K-1)`` (Equation 1).

    Upper-bounds the ratio of the Top-Down (Theorem 2) and Bottom-Up
    (Theorem 4) search spaces to the exhaustive space.  ``height``
    defaults to :func:`hierarchy_height`.
    """
    if k < 2:
        raise ValueError("beta requires K > 1")
    if max_cs > n:
        max_cs = n
    h = height if height is not None else hierarchy_height(n, max_cs)
    return h * (max_cs / n) ** (k - 1)


def top_down_space_bound(k: int, n: int, max_cs: int, height: int | None = None) -> float:
    """Theorem 2: worst-case Top-Down search space ``beta * O_exhaustive``.

    Simplifies to ``h * max_cs^(K-1) * K(K-1)(K+1)/6``: ``h`` levels,
    each running an exhaustive search within one cluster.
    """
    return beta(k, n, max_cs, height) * exhaustive_space(k, n)


def bottom_up_space_bound(k: int, n: int, max_cs: int) -> float:
    """Theorem 4: the Bottom-Up worst case shares the Top-Down bound."""
    return top_down_space_bound(k, n, max_cs)


def hierarchy_estimate_slack(intra_cluster_costs: Sequence[float], level: int) -> float:
    """Theorem 1's slack: ``sum_{i < level} 2 * d_i``.

    Args:
        intra_cluster_costs: ``d_i`` per level, 1-indexed conceptually
            (``intra_cluster_costs[0]`` is level 1's ``d_1``).
        level: The level the estimate is taken at (>= 1).

    Returns:
        The maximum amount by which the actual traversal cost between two
        nodes can exceed their level-``level`` estimate.
    """
    if level < 1:
        raise ValueError("levels are 1-indexed")
    if level - 1 > len(intra_cluster_costs):
        raise ValueError(
            f"level {level} needs {level - 1} d_i values, got {len(intra_cluster_costs)}"
        )
    return 2.0 * float(sum(intra_cluster_costs[: level - 1]))


def top_down_suboptimality_bound(
    edge_rates: Iterable[float],
    intra_cluster_costs: Sequence[float],
    height: int,
) -> float:
    """Theorem 3: additive sub-optimality bound of a Top-Down deployment.

    ``sum_{edges e} s_e * sum_{i < h} 2 d_i`` where ``s_e`` is the data
    rate along each edge of the chosen query tree (including the
    delivery edge to the sink).

    Args:
        edge_rates: Rate of every tree edge of the chosen plan.
        intra_cluster_costs: ``d_i`` per level.
        height: Number of hierarchy levels ``h``.
    """
    slack = hierarchy_estimate_slack(intra_cluster_costs, height)
    return float(sum(edge_rates)) * slack
