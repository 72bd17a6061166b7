"""Ablation: response-time objective via delay re-weighting.

The paper: "if the metric is response-time, we cluster based on
inter-node delays".  This bench optimizes the same workload under both
objectives and cross-evaluates: each deployment should win under its own
metric, quantifying how much objective choice matters.
"""

import numpy as np

from benchmarks.conftest import save_text
from repro.core.cost import deployment_cost
from repro.core.exhaustive import OptimalPlanner
from repro.network.objectives import delay_weighted
from repro.workload import WorkloadParams, build_world, world_seeds


def test_latency_vs_cost_objective(benchmark):
    params = WorkloadParams(num_streams=8, num_queries=10, joins_per_query=(2, 4))
    env = build_world(64, params, **world_seeds(17, (8,)))
    cost_net = env.network
    lat_net = delay_weighted(cost_net)
    cost_matrix = cost_net.cost_matrix()
    delay_matrix = lat_net.cost_matrix()

    cost_planner = OptimalPlanner(cost_net, env.rates)
    lat_planner = OptimalPlanner(lat_net, env.rates)

    totals = {"cost-opt": [0.0, 0.0], "latency-opt": [0.0, 0.0]}
    for query in env.workload:
        d_cost = cost_planner.plan(query)
        d_lat = lat_planner.plan(query)
        totals["cost-opt"][0] += deployment_cost(d_cost, cost_matrix, env.rates)
        totals["cost-opt"][1] += deployment_cost(d_cost, delay_matrix, env.rates)
        totals["latency-opt"][0] += deployment_cost(d_lat, cost_matrix, env.rates)
        totals["latency-opt"][1] += deployment_cost(d_lat, delay_matrix, env.rates)

    lines = [
        "objective ablation: optimize for cost vs for latency (10 queries)",
        "",
        f"  {'planner':<14} {'$ cost metric':>14} {'latency metric':>15}",
    ]
    for label, (c, l) in totals.items():
        lines.append(f"  {label:<14} {c:>14,.0f} {l:>15,.2f}")
    cost_penalty = 100 * (totals["latency-opt"][0] / totals["cost-opt"][0] - 1)
    lat_penalty = 100 * (totals["cost-opt"][1] / totals["latency-opt"][1] - 1)
    lines.append(
        f"  optimizing the wrong metric costs +{cost_penalty:.1f}% ($) / "
        f"+{lat_penalty:.1f}% (latency)"
    )
    save_text("ablation_latency", "\n".join(lines))

    # each planner wins under its own objective
    assert totals["cost-opt"][0] <= totals["latency-opt"][0] + 1e-6
    assert totals["latency-opt"][1] <= totals["cost-opt"][1] + 1e-6

    query = env.workload.queries[0]
    benchmark(lambda: lat_planner.plan(query))
