"""Exportable plan explanations assembled from deployments and traces.

A :class:`PlanExplanation` answers, for one optimized query, the
questions the optimizer's final cost alone cannot: *why this join
order* (the operator tree and where each operator landed), *why this
node* (the per-flow rates and shipping costs each placement pays),
*what was reused* (derived views spliced in as leaves instead of
recomputed), and *what was pruned* (cross-product trees skipped,
candidate nodes dropped by the ``max_cs`` budget, plans examined per
hierarchy level).

The search-side answers come from the optimizer's span trace
(:mod:`repro.obs.tracer`); the plan-side answers from the
:class:`~repro.query.deployment.Deployment` itself.  Explanations are
plain-data (dict) serializable -- see
:func:`repro.serialization.explanation_to_json` -- and render to an
operator-readable text report.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.obs.tracer import NULL_SPAN, Span, Tracer, current_tracer, span, tracing
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Leaf

#: Span names that represent one per-level planning step.
_LEVEL_SPANS = ("task", "climb", "component", "subset_dp")


@dataclass
class PlanExplanation:
    """A serializable report on one optimization outcome.

    Attributes:
        query: Query name.
        algorithm: Optimizer that produced the plan.
        cost_estimate: The optimizer's own cost estimate (``None`` when
            it did not report one).
        plan: Parenthesized join order, e.g. ``((A x B) x C)``.
        sink: The query's sink node.
        operators: One entry per join operator: its expression, chosen
            node, and per-input source node / rate / shipping cost.
        reused_views: Derived views spliced in as plan leaves instead of
            being recomputed, with their provider nodes.
        levels: Per-planning-step search accounting pulled from the
            trace (hierarchy level, coordinator, plans/trees examined,
            prune counts, duration).
        totals: Search-wide counter totals (plans examined, trees
            enumerated, cross-product trees pruned, ...).
    """

    query: str
    algorithm: str
    cost_estimate: float | None
    plan: str
    sink: int
    operators: list[dict[str, Any]] = field(default_factory=list)
    reused_views: list[dict[str, Any]] = field(default_factory=list)
    levels: list[dict[str, Any]] = field(default_factory=list)
    totals: dict[str, float] = field(default_factory=dict)

    # -- serialization ------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form."""
        return {
            "query": self.query,
            "algorithm": self.algorithm,
            "cost_estimate": self.cost_estimate,
            "plan": self.plan,
            "sink": self.sink,
            "operators": self.operators,
            "reused_views": self.reused_views,
            "levels": self.levels,
            "totals": self.totals,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "PlanExplanation":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            query=doc["query"],
            algorithm=doc["algorithm"],
            cost_estimate=doc.get("cost_estimate"),
            plan=doc["plan"],
            sink=doc["sink"],
            operators=list(doc.get("operators", [])),
            reused_views=list(doc.get("reused_views", [])),
            levels=list(doc.get("levels", [])),
            totals=dict(doc.get("totals", {})),
        )

    # -- rendering ----------------------------------------------------
    def render(self) -> str:
        """Operator-readable multi-line report."""
        lines = [f"plan explanation: query {self.query!r} via {self.algorithm}"]
        if self.cost_estimate is not None:
            lines[0] += f" (est. cost {self.cost_estimate:,.1f}/unit-time)"
        lines.append(f"  join order: {self.plan}  -> sink @node {self.sink}")
        if self.operators:
            lines.append("  operators:")
            for op in self.operators:
                lines.append(f"    JOIN {op['op']}  @node {op['node']}")
                for inp in op["inputs"]:
                    detail = f"      <- {inp['view']} ({inp['kind']}) @node {inp['node']}"
                    if inp.get("rate") is not None:
                        detail += f"  rate {inp['rate']:.2f}"
                    if inp.get("ship_cost") is not None:
                        detail += f"  ship cost {inp['ship_cost']:.2f}"
                    lines.append(detail)
        if self.reused_views:
            lines.append("  reused (not recomputed):")
            for view in self.reused_views:
                lines.append(
                    f"    {view['view']} served from @node {view['node']}"
                )
        else:
            lines.append("  reused: nothing (all operators computed fresh)")
        if self.totals:
            parts = []
            for key in ("plans_examined", "trees_enumerated", "pruned_cross_trees",
                        "candidates_dropped", "reuse_groupings"):
                if self.totals.get(key):
                    parts.append(f"{self.totals[key]:g} {key.replace('_', ' ')}")
            if parts:
                lines.append(f"  search: {', '.join(parts)}")
        if self.levels:
            lines.append("  per planning step:")
            for level in self.levels:
                where = f"L{level['level']}" if level.get("level") is not None else "-"
                coord = level.get("coordinator")
                label = f"{where} coord {coord}" if coord is not None else where
                counters = ", ".join(
                    f"{k.replace('_', ' ')} {v:g}"
                    for k, v in sorted(level.get("counters", {}).items())
                )
                duration = level.get("duration_ms")
                suffix = f"  [{duration:.2f} ms]" if duration is not None else ""
                lines.append(f"    {level['step']:<10} {label}: {counters}{suffix}")
        return "\n".join(lines)


def explained_plan(
    planner, query, state: DeploymentState | None, explain: bool, network
) -> Deployment:
    """``planner._plan(query, state)`` inside an ``optimize`` span: the
    ``plan(..., explain=)`` entry point of every traced planner.

    With a tracer installed the deployment keeps its span tree in
    ``stats["trace"]``.  ``explain=True`` installs a one-shot tracer
    when none is, and attaches a :class:`PlanExplanation` priced on
    ``network``'s costs and ``planner.rates``.
    """
    one_shot = explain and current_tracer() is None
    with tracing(Tracer()) if one_shot else nullcontext():
        with span(
            "optimize", algorithm=planner.name, query=query.name,
            sources=len(query.sources),
        ) as root:
            deployment = planner._plan(query, state)
    if root is not NULL_SPAN:
        deployment.stats["trace"] = root.to_dict()
        if explain:
            deployment.explanation = build_explanation(
                deployment, root, network.cost_matrix(), planner.rates
            )
    return deployment


def build_explanation(
    deployment: Deployment,
    trace: Span | None = None,
    costs: np.ndarray | None = None,
    rates=None,
) -> PlanExplanation:
    """Assemble a :class:`PlanExplanation` for a finished deployment.

    Args:
        deployment: The optimized deployment to explain.
        trace: Root span of the optimization that produced it (adds the
            per-level search accounting when given).
        costs: All-pairs cost matrix; with ``rates``, annotates every
            operator input with its shipping rate and cost.
        rates: The :class:`~repro.core.cost.RateModel` used to plan.
    """
    query = deployment.query
    stats = deployment.stats or {}
    cost_estimate = stats.get("est_cost", stats.get("cost_estimate"))
    if cost_estimate is not None and not np.isfinite(cost_estimate):
        cost_estimate = None

    operators: list[dict[str, Any]] = []
    for join in deployment.plan.joins():
        node = deployment.placement[join]
        inputs = []
        for child in (join.left, join.right):
            src = deployment.placement.get(child)
            if isinstance(child, Leaf):
                kind = "base stream" if child.is_base_stream else "reused view"
            else:
                kind = "join output"
            entry: dict[str, Any] = {
                "view": child.pretty(),
                "kind": kind,
                "node": src,
            }
            if rates is not None and src is not None:
                rate = rates.rate_for(query, child.sources)
                if isinstance(child, Leaf) and not child.is_base_stream:
                    rate *= rates.reuse_rate_inflation
                entry["rate"] = float(rate)
                if costs is not None:
                    entry["ship_cost"] = float(rate * costs[src, node])
            inputs.append(entry)
        operators.append({"op": join.pretty(), "node": node, "inputs": inputs})

    reused = [
        {"view": leaf.pretty(), "node": deployment.placement.get(leaf)}
        for leaf in deployment.plan.leaves()
        if not leaf.is_base_stream
    ]

    levels: list[dict[str, Any]] = []
    totals: dict[str, float] = {}
    if trace is not None:
        for span in trace.walk():
            for key, value in span.counters.items():
                totals[key] = totals.get(key, 0) + value
            if span.name in _LEVEL_SPANS:
                levels.append(
                    {
                        "step": span.name,
                        "level": span.tags.get("level"),
                        "coordinator": span.tags.get("coordinator"),
                        "counters": dict(span.counters),
                        "duration_ms": span.duration * 1000.0,
                    }
                )
    for key in ("plans_examined", "trees_examined"):
        if key in stats and key not in totals:
            totals[key] = float(stats[key])

    return PlanExplanation(
        query=query.name,
        algorithm=stats.get("algorithm", "?"),
        cost_estimate=None if cost_estimate is None else float(cost_estimate),
        plan=deployment.plan.pretty(),
        sink=query.sink,
        operators=operators,
        reused_views=reused,
        levels=levels,
        totals=totals,
    )
