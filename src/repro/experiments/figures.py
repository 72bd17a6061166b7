"""One experiment driver per paper figure.

Every driver returns a :class:`FigureResult` whose series mirror the
lines/bars the paper plots, plus a ``summary`` of the headline numbers
the paper quotes in its text (e.g. "Top-Down is only 10% sub-optimal")
and ``expectations`` recording the paper's own values for comparison.
Default sizes reproduce the paper's setup; the ``queries`` /
``workloads`` knobs let the benchmarks trade runtime for averaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.bounds import exhaustive_space, top_down_space_bound
from repro.experiments.harness import average_curves, cumulative_costs
from repro.runtime.engine import FlowEngine
from repro.runtime.protocol import simulate_deployment
from repro.utils import SeedLike, as_generator
from repro.workload.generator import WorkloadParams
from repro.workload.world import build_world, world_seeds

#: Fig. 2's network size and predicate graph shape (clique: every
#: stream pair joinable, where join-order choice matters most).
FIG2_NODES = 64
FIG2_PREDICATE_STYLE = "clique"
#: Fig. 8's In-network zone count.
FIG8_ZONES = 5
#: Fig. 9's query size (streams per query) and cluster-size bound.
FIG9_QUERY_SIZE = 4
FIG9_MAX_CS = 32
#: The prototype of Figs. 10-11: 32 nodes, hierarchies of cluster size
#: 4 and 8, and the coordinators' search speed.
PROTOTYPE_NODES = 32
PROTOTYPE_MAX_CS = (4, 8)
FIG10_SECONDS_PER_PLAN = 1e-6


@dataclass
class FigureResult:
    """Structured output of one figure's experiment.

    Attributes:
        figure: Figure id, e.g. ``"fig7"``.
        title: What the figure shows.
        x_label: Meaning of the x axis.
        x: X-axis values.
        series: Line name -> y values (aligned with ``x``).
        summary: Headline measured numbers (percentages, ratios).
        expectations: The paper's quoted values for the same headlines.
    """

    figure: str
    title: str
    x_label: str
    x: list
    series: dict[str, list[float]]
    summary: dict[str, float] = field(default_factory=dict)
    expectations: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize to a JSON document (reproducible artifact)."""
        import json

        return json.dumps(
            {
                "figure": self.figure,
                "title": self.title,
                "x_label": self.x_label,
                "x": self.x,
                "series": self.series,
                "summary": self.summary,
                "expectations": self.expectations,
            },
            indent=2,
            allow_nan=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FigureResult":
        """Rebuild a result from :meth:`to_json` output."""
        import json

        data = json.loads(text)
        return cls(
            figure=data["figure"],
            title=data["title"],
            x_label=data["x_label"],
            x=data["x"],
            series={k: list(v) for k, v in data["series"].items()},
            summary=dict(data.get("summary", {})),
            expectations=dict(data.get("expectations", {})),
        )


# ----------------------------------------------------------------------
# Figure 2 -- motivation: joint optimization vs plan-then-deploy
# ----------------------------------------------------------------------
def figure02_motivation(queries: int = 100, seed: SeedLike = 0) -> FigureResult:
    """Fig. 2: 100 queries x 5 sources on a 64-node network.

    Compares the total communication cost of (a) the Relaxation
    algorithm, (b) plan-then-deploy with optimal placement, and (c) the
    joint Top-Down algorithm, all with operator reuse enabled.  The
    paper reports >50% savings for the joint approach; we reproduce that
    against Relaxation, while our plan-then-deploy baseline (truly
    optimal placement + deploy-time reuse) is stronger than the paper's
    and concedes 5-10% (see EXPERIMENTS.md).  Clique predicate graphs
    (every stream pair joinable, like the OIS's shared flight/time
    attributes) are where join-order choice matters most.
    """
    params = WorkloadParams(
        num_streams=10,
        num_queries=queries,
        joins_per_query=(4, 4),
        predicate_style=FIG2_PREDICATE_STYLE,
    )
    env = build_world(FIG2_NODES, params, **world_seeds(seed, (16,)))
    series: dict[str, list[float]] = {}
    for label, name in [
        ("relaxation", "relaxation"),
        ("plan-then-deploy", "plan-then-deploy"),
        ("our-approach (top-down)", "top-down"),
    ]:
        series[label] = cumulative_costs(env, name, max_cs=16, reuse=True)
    ours = series["our-approach (top-down)"][-1]
    summary = {
        "savings_vs_relaxation_pct": 100 * (1 - ours / series["relaxation"][-1]),
        "savings_vs_plan_then_deploy_pct": 100
        * (1 - ours / series["plan-then-deploy"][-1]),
    }
    return FigureResult(
        figure="fig2",
        title="Joint plan+deploy vs phased approaches (reuse enabled)",
        x_label="queries deployed",
        x=list(range(1, queries + 1)),
        series=series,
        summary=summary,
        expectations={"savings_vs_relaxation_pct": 50.0},
    )


# ----------------------------------------------------------------------
# Figures 5 & 6 -- cluster-size sweeps
# ----------------------------------------------------------------------
def _cluster_sweep(
    algorithm: str,
    workloads: int,
    queries: int,
    max_cs_values: Sequence[int],
    num_nodes: int,
    seed: SeedLike,
) -> FigureResult:
    rng = as_generator(seed)
    params = WorkloadParams(num_streams=10, num_queries=queries, joins_per_query=(2, 5))
    curves: dict[int, list[list[float]]] = {cs: [] for cs in max_cs_values}
    for _ in range(workloads):
        env = build_world(num_nodes, params, **world_seeds(int(rng.integers(0, 2**31)), max_cs_values))
        for cs in max_cs_values:
            curves[cs].append(cumulative_costs(env, algorithm, max_cs=cs, reuse=True))
    series = {f"cluster size={cs}": average_curves(curves[cs]) for cs in max_cs_values}
    lo, hi = max_cs_values[1] if len(max_cs_values) > 1 else max_cs_values[0], max_cs_values[-1]
    # headline: relative cost reduction from a small to the largest max_cs
    small = series[f"cluster size={8 if 8 in max_cs_values else lo}"][-1]
    large = series[f"cluster size={max_cs_values[-1]}"][-1]
    summary = {"cost_reduction_8_to_64_pct": 100 * (1 - large / small)}
    return FigureResult(
        figure="fig5" if algorithm == "bottom-up" else "fig6",
        title=f"{algorithm}: cumulative cost vs cluster size",
        x_label="queries deployed",
        x=list(range(1, queries + 1)),
        series=series,
        summary=summary,
        expectations={"cost_reduction_8_to_64_pct": 21.0 if algorithm == "bottom-up" else float("nan")},
    )


def figure05_bottom_up_cluster_sweep(
    workloads: int = 10,
    queries: int = 20,
    max_cs_values: Sequence[int] = (2, 4, 8, 16, 32, 64),
    num_nodes: int = 128,
    seed: SeedLike = 0,
) -> FigureResult:
    """Fig. 5: Bottom-Up cumulative cost for max_cs in {2..64}.

    Larger clusters mean fewer levels, fewer approximations and lower
    cost; the paper reports ~21% improvement from max_cs 8 to 64.
    """
    return _cluster_sweep("bottom-up", workloads, queries, max_cs_values, num_nodes, seed)


def figure06_top_down_cluster_sweep(
    workloads: int = 10,
    queries: int = 20,
    max_cs_values: Sequence[int] = (2, 4, 8, 16, 32, 64),
    num_nodes: int = 128,
    seed: SeedLike = 0,
) -> FigureResult:
    """Fig. 6: Top-Down cumulative cost for max_cs in {2..64}.

    Because Top-Down considers all operator orderings at the top level
    regardless of max_cs, curves for max_cs > 4 bunch together; only
    very small clusters (many levels) degrade it noticeably.
    """
    return _cluster_sweep("top-down", workloads, queries, max_cs_values, num_nodes, seed)


# ----------------------------------------------------------------------
# Figure 7 -- sub-optimality and the effect of reuse
# ----------------------------------------------------------------------
def figure07_suboptimality_and_reuse(
    workloads: int = 3,
    queries: int = 20,
    num_nodes: int = 128,
    max_cs: int = 32,
    seed: SeedLike = 0,
) -> FigureResult:
    """Fig. 7: Optimal(DP) vs Top-Down / Bottom-Up with & without reuse.

    Paper headlines: Top-Down ~10% above optimal, Bottom-Up ~34%;
    reuse saves ~27% (Top-Down) and ~30% (Bottom-Up); Top-Down with
    reuse ~19% better than Bottom-Up with reuse.
    """
    rng = as_generator(seed)
    params = WorkloadParams(num_streams=10, num_queries=queries, joins_per_query=(2, 5))
    configs = [
        ("optimal", "optimal", True),
        ("top-down with reuse", "top-down", True),
        ("top-down without reuse", "top-down", False),
        ("bottom-up with reuse", "bottom-up", True),
        ("bottom-up without reuse", "bottom-up", False),
    ]
    curves: dict[str, list[list[float]]] = {label: [] for label, *_ in configs}
    for _ in range(workloads):
        env = build_world(num_nodes, params, **world_seeds(int(rng.integers(0, 2**31)), (max_cs,)))
        for label, name, reuse in configs:
            curves[label].append(cumulative_costs(env, name, max_cs=max_cs, reuse=reuse))
    series = {label: average_curves(c) for label, c in curves.items()}
    opt = series["optimal"][-1]
    summary = {
        "top_down_suboptimality_pct": 100 * (series["top-down with reuse"][-1] / opt - 1),
        "bottom_up_suboptimality_pct": 100 * (series["bottom-up with reuse"][-1] / opt - 1),
        "top_down_reuse_saving_pct": 100
        * (1 - series["top-down with reuse"][-1] / series["top-down without reuse"][-1]),
        "bottom_up_reuse_saving_pct": 100
        * (1 - series["bottom-up with reuse"][-1] / series["bottom-up without reuse"][-1]),
        "top_down_vs_bottom_up_pct": 100
        * (1 - series["top-down with reuse"][-1] / series["bottom-up with reuse"][-1]),
    }
    return FigureResult(
        figure="fig7",
        title="Sub-optimality and effect of operator reuse (max_cs=32)",
        x_label="queries deployed",
        x=list(range(1, queries + 1)),
        series=series,
        summary=summary,
        expectations={
            "top_down_suboptimality_pct": 10.0,
            "bottom_up_suboptimality_pct": 34.0,
            "top_down_reuse_saving_pct": 27.0,
            "bottom_up_reuse_saving_pct": 30.0,
            "top_down_vs_bottom_up_pct": 19.0,
        },
    )


# ----------------------------------------------------------------------
# Figure 8 -- comparison with existing approaches
# ----------------------------------------------------------------------
def figure08_baseline_comparison(
    workloads: int = 3,
    queries: int = 20,
    num_nodes: int = 128,
    max_cs: int = 32,
    seed: SeedLike = 0,
) -> FigureResult:
    """Fig. 8: Top-Down / Bottom-Up vs Relaxation, In-network, Exhaustive.

    All approaches run with reuse considered.  The paper reports
    Top-Down saving ~40% vs In-network and ~59% vs Relaxation
    (Bottom-Up: ~27% and ~49%).
    """
    rng = as_generator(seed)
    params = WorkloadParams(num_streams=10, num_queries=queries, joins_per_query=(2, 5))
    configs = [
        ("top-down with reuse", "top-down", {}),
        ("bottom-up with reuse", "bottom-up", {}),
        ("exhaustive (optimal)", "optimal", {}),
        ("relaxation with reuse", "relaxation", {}),
        ("in-network with reuse", "in-network", {"zones": FIG8_ZONES}),
    ]
    curves: dict[str, list[list[float]]] = {label: [] for label, *_ in configs}
    for _ in range(workloads):
        env = build_world(num_nodes, params, **world_seeds(int(rng.integers(0, 2**31)), (max_cs,)))
        for label, name, kwargs in configs:
            curves[label].append(
                cumulative_costs(env, name, max_cs=max_cs, reuse=True, **kwargs)
            )
    series = {label: average_curves(c) for label, c in curves.items()}
    td = series["top-down with reuse"][-1]
    bu = series["bottom-up with reuse"][-1]
    summary = {
        "td_savings_vs_in_network_pct": 100 * (1 - td / series["in-network with reuse"][-1]),
        "td_savings_vs_relaxation_pct": 100 * (1 - td / series["relaxation with reuse"][-1]),
        "bu_savings_vs_in_network_pct": 100 * (1 - bu / series["in-network with reuse"][-1]),
        "bu_savings_vs_relaxation_pct": 100 * (1 - bu / series["relaxation with reuse"][-1]),
    }
    return FigureResult(
        figure="fig8",
        title="Comparison with existing approaches (reuse for all)",
        x_label="queries deployed",
        x=list(range(1, queries + 1)),
        series=series,
        summary=summary,
        expectations={
            "td_savings_vs_in_network_pct": 40.0,
            "td_savings_vs_relaxation_pct": 59.0,
            "bu_savings_vs_in_network_pct": 27.0,
            "bu_savings_vs_relaxation_pct": 49.0,
        },
    )


# ----------------------------------------------------------------------
# Figure 9 -- search-space scalability with network size
# ----------------------------------------------------------------------
def figure09_search_space_scalability(
    network_sizes: Sequence[int] = (128, 256, 512, 1024),
    queries: int = 10,
    num_streams: int = 100,
    seed: SeedLike = 0,
) -> FigureResult:
    """Fig. 9: plans considered vs network size (log scale in the paper).

    Measures the average number of plan/assignment combinations the
    Top-Down and Bottom-Up algorithms examine for one 4-stream query,
    against Lemma 1's exhaustive count and the Theorem 2/4 worst-case
    bounds.  Both algorithms should sit >=99% below exhaustive and the
    analytical bounds stay nearly flat across sizes.

    Deviation note: the paper also reports Bottom-Up ~45% below
    Top-Down.  Our Top-Down fragments operators thinly across cluster
    members, so its measured combination count is usually the *smaller*
    one; ``bu_below_td_pct`` may come out negative (see EXPERIMENTS.md).
    Bottom-Up's operational advantage -- deployment speed -- is what
    Figure 10 reproduces.
    """
    query_size, max_cs = FIG9_QUERY_SIZE, FIG9_MAX_CS
    rng = as_generator(seed)
    params = WorkloadParams(
        num_streams=num_streams,
        num_queries=queries,
        joins_per_query=(query_size - 1, query_size - 1),
    )
    series: dict[str, list[float]] = {
        "top-down (measured)": [],
        "bottom-up (measured)": [],
        "exhaustive (Lemma 1)": [],
        "analytical bound (Thm 2/4)": [],
    }
    for n in network_sizes:
        env = build_world(n, params, **world_seeds(int(rng.integers(0, 2**31)), (max_cs,)))
        td = env.optimizer("top-down", max_cs=max_cs)
        bu = env.optimizer("bottom-up", max_cs=max_cs)
        height = env.hierarchy(max_cs).height
        td_counts, bu_counts = [], []
        for query in env.workload:
            td_counts.append(td.plan(query).stats["plans_examined"])
            bu_counts.append(bu.plan(query).stats["plans_examined"])
        series["top-down (measured)"].append(float(np.mean(td_counts)))
        series["bottom-up (measured)"].append(float(np.mean(bu_counts)))
        series["exhaustive (Lemma 1)"].append(exhaustive_space(query_size, n))
        series["analytical bound (Thm 2/4)"].append(
            top_down_space_bound(query_size, n, max_cs, height=height)
        )
    reduction = [
        100 * (1 - m / e)
        for m, e in zip(series["top-down (measured)"], series["exhaustive (Lemma 1)"])
    ]
    bu_vs_td = [
        100 * (1 - b / t)
        for b, t in zip(series["bottom-up (measured)"], series["top-down (measured)"])
    ]
    summary = {
        "min_search_space_reduction_pct": float(np.min(reduction)),
        "bu_below_td_pct": float(np.mean(bu_vs_td)),
        "bound_flatness_ratio": float(
            max(series["analytical bound (Thm 2/4)"]) / min(series["analytical bound (Thm 2/4)"])
        ),
    }
    return FigureResult(
        figure="fig9",
        title="Scalability with network size (plans considered)",
        x_label="network size",
        x=list(network_sizes),
        series=series,
        summary=summary,
        expectations={
            "min_search_space_reduction_pct": 99.0,
            "bu_below_td_pct": 45.0,
        },
    )


# ----------------------------------------------------------------------
# Figures 10 & 11 -- prototype (Emulab substitution)
# ----------------------------------------------------------------------
def _prototype_env(queries: int, seed: SeedLike):
    params = WorkloadParams(
        num_streams=8, num_queries=queries, joins_per_query=(1, 4)
    )
    return build_world(PROTOTYPE_NODES, params, **world_seeds(seed, PROTOTYPE_MAX_CS))


def figure10_deployment_time(queries: int = 25, seed: SeedLike = 0) -> FigureResult:
    """Fig. 10: average deployment time vs query size (32-node prototype).

    Simulated protocol time on the Emulab-like network (1-60 ms link
    delays): Bottom-Up deploys faster than Top-Down (the paper reports
    ~70% faster), and Top-Down improves with larger max_cs because
    fewer levels are traversed.
    """
    max_cs_values = PROTOTYPE_MAX_CS
    env = _prototype_env(queries, seed)
    sizes = sorted({len(q.sources) for q in env.workload})
    series: dict[str, list[float]] = {}
    overall: dict[str, float] = {}
    for cs in max_cs_values:
        for name, label in [("bottom-up", "Bottom-Up"), ("top-down", "Top-Down")]:
            optimizer = env.optimizer(name, max_cs=cs)
            by_size: dict[int, list[float]] = {s: [] for s in sizes}
            for query in env.workload:
                deployment = optimizer.plan(query)
                timeline = simulate_deployment(
                    env.network, deployment, seconds_per_plan=FIG10_SECONDS_PER_PLAN
                )
                by_size[len(query.sources)].append(timeline.duration)
            key = f"{label} (cluster size={cs})"
            series[key] = [float(np.mean(by_size[s])) if by_size[s] else float("nan") for s in sizes]
            overall[key] = float(
                np.mean([t for v in by_size.values() for t in v])
            )
    td_mean = np.mean([v for k, v in overall.items() if "Top-Down" in k])
    bu_mean = np.mean([v for k, v in overall.items() if "Bottom-Up" in k])
    summary = {
        "bu_faster_than_td_pct": 100 * (1 - bu_mean / td_mean),
        "td_cs4_minus_cs8_ratio": overall.get(f"Top-Down (cluster size={max_cs_values[0]})", 1.0)
        / max(overall.get(f"Top-Down (cluster size={max_cs_values[-1]})", 1.0), 1e-12),
    }
    return FigureResult(
        figure="fig10",
        title="Query deployment time vs query size (prototype sim)",
        x_label="query size (number of streams)",
        x=sizes,
        series=series,
        summary=summary,
        expectations={"bu_faster_than_td_pct": 70.0, "td_cs4_minus_cs8_ratio": 1.0},
    )


def figure11_prototype_cumulative_cost(queries: int = 25, seed: SeedLike = 0) -> FigureResult:
    """Fig. 11: cumulative deployed cost on the prototype (32 nodes).

    Uses the flow engine as the data plane.  Top-Down yields lower
    deployed cost than Bottom-Up (it considers all operator orderings
    at the top), and both improve with the larger cluster size.
    """
    max_cs_values = PROTOTYPE_MAX_CS
    env = _prototype_env(queries, seed)
    series: dict[str, list[float]] = {}
    for cs in max_cs_values:
        for name, label in [("bottom-up", "Bottom-Up"), ("top-down", "Top-Down")]:
            optimizer = env.optimizer(name, max_cs=cs)
            engine = FlowEngine(env.network, env.rates)
            curve = []
            for i, query in enumerate(env.workload):
                engine.deploy(optimizer.plan(query, engine.state), time=float(i))
                curve.append(engine.total_cost())
            series[f"{label} (cluster size={cs})"] = curve
    td_last = series[f"Top-Down (cluster size={max_cs_values[-1]})"][-1]
    bu_last = series[f"Bottom-Up (cluster size={max_cs_values[-1]})"][-1]
    summary = {"td_below_bu_pct": 100 * (1 - td_last / bu_last)}
    return FigureResult(
        figure="fig11",
        title="Cumulative deployed cost (prototype sim)",
        x_label="queries deployed",
        x=list(range(1, queries + 1)),
        series=series,
        summary=summary,
        expectations={"td_below_bu_pct": float("nan")},
    )
