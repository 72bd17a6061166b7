"""Human-readable rendering of hierarchies, plans and deployments.

Plain-text (terminal-friendly) views used by the CLI, the examples and
debugging sessions: an indented hierarchy tree, a box-drawing plan tree,
and per-flow deployment breakdowns.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.cost import RateModel
from repro.hierarchy.hierarchy import Cluster, Hierarchy
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Join, Leaf, PlanNode


def render_hierarchy(hierarchy: Hierarchy, max_members: int = 12) -> str:
    """Indented tree of the hierarchy's clusters.

    Args:
        hierarchy: The hierarchy to render.
        max_members: Member lists longer than this are elided.

    Returns:
        A multi-line string; one line per cluster, coordinators marked
        with ``*``.
    """
    lines = [
        f"Hierarchy: {hierarchy.height} level(s), max_cs={hierarchy.max_cs}, "
        f"{len(hierarchy.root.subtree_nodes())} nodes"
    ]

    def fmt_members(cluster: Cluster) -> str:
        members = [
            f"*{m}" if m == cluster.coordinator else str(m) for m in sorted(cluster.members)
        ]
        if len(members) > max_members:
            members = members[:max_members] + [f"... +{cluster.size - max_members}"]
        return ", ".join(members)

    stack = [(hierarchy.root, 1)]
    while stack:
        cluster, depth = stack.pop()
        indent = "  " * depth
        lines.append(
            f"{indent}L{cluster.level} cluster "
            f"(coord {cluster.coordinator}, {cluster.size} members): {fmt_members(cluster)}"
        )
        for member in sorted(cluster.children, reverse=True):
            stack.append((cluster.children[member], depth + 1))
    return "\n".join(lines)


def render_plan(plan: PlanNode, placement: Mapping[PlanNode, int] | None = None) -> str:
    """Box-drawing tree of a plan, optionally annotated with placements."""
    lines: list[str] = []

    def label(node: PlanNode) -> str:
        if isinstance(node, Leaf):
            kind = "stream" if node.is_base_stream else "REUSE"
            text = f"{kind} {node.label}"
        else:
            text = f"JOIN {node.pretty()}"
        if placement is not None and node in placement:
            text += f"  @node {placement[node]}"
        return text

    # Per node: its prefix, its connector and what its children's prefix adds.
    stack = [(plan, "", "", "")]
    while stack:
        node, prefix, connector, extension = stack.pop()
        lines.append(prefix + connector + label(node))
        if isinstance(node, Join):
            prefix += extension
            stack.append((node.right, prefix, "`-- ", "    "))
            stack.append((node.left, prefix, "|-- ", "|   "))
    return "\n".join(lines)


def describe_deployment(
    deployment: Deployment,
    costs: np.ndarray,
    rates: RateModel,
) -> str:
    """Per-flow breakdown of a deployment's communication cost."""
    query = deployment.query
    rows: list[tuple[str, int, int, float, float]] = []

    def flow_rate(node: PlanNode) -> float:
        rate = rates.rate_for(query, node.sources)
        if isinstance(node, Leaf) and not node.is_base_stream:
            rate *= rates.reuse_rate_inflation
        return rate

    for join in deployment.plan.joins():
        dest = deployment.placement[join]
        for child in (join.left, join.right):
            src = deployment.placement[child]
            rate = flow_rate(child)
            rows.append((child.pretty(), src, dest, rate, rate * float(costs[src, dest])))
    root = deployment.plan
    src = deployment.placement[root]
    rate = flow_rate(root)
    rows.append((f"{root.pretty()} -> sink", src, query.sink, rate, rate * float(costs[src, query.sink])))

    width = max(len(r[0]) for r in rows)
    lines = [f"deployment of {query.name!r} (sink {query.sink}):"]
    total = 0.0
    for text, s, d, rate, cost in rows:
        total += cost
        lines.append(
            f"  {text.ljust(width)}  {s:>4} -> {d:<4}  rate {rate:10.2f}  cost {cost:12.2f}"
        )
    lines.append(f"  {'TOTAL'.ljust(width)}  {'':>4}    {'':<4}  {'':>16}  cost {total:12.2f}")
    return "\n".join(lines)


def summarize_state(state: DeploymentState) -> str:
    """One-paragraph summary of a deployment state."""
    views = state.advertised_views()
    lines = [
        f"{len(state.deployments)} deployments, {state.num_operators} operator "
        f"instance(s), {len(state.flows())} flows, total cost/unit-time "
        f"{state.total_cost():.1f}",
    ]
    if views:
        lines.append("advertised derived streams:")
        for sig, nodes in sorted(views.items(), key=lambda kv: kv[0].label()):
            lines.append(f"  {sig.label():<20} at node(s) {sorted(nodes)}")
    return "\n".join(lines)
