"""Ablation: planning effort vs query size (the K axis).

Lemma 1 makes exhaustive search explode in K; the hierarchical
algorithms are bounded by ``h * max_cs^(K-1) * orders(K)``.  This bench
measures wall-clock planning time and combinations examined for K = 3..6
on the 128-node network, against the analytic exhaustive count.
"""

import time

import numpy as np

from benchmarks.conftest import save_text
from repro.core.bounds import exhaustive_space
from repro.workload import WorkloadParams, build_world, world_seeds


def test_planning_effort_vs_query_size(benchmark):
    lines = [
        "planning effort vs query size (128 nodes, max_cs=32, 5 queries/size)",
        "",
        f"  {'K':>3} {'exhaustive':>12} {'TD plans':>10} {'TD ms':>7} "
        f"{'BU plans':>10} {'BU ms':>7} {'optimal ms':>11}",
    ]
    for k in (3, 4, 5, 6):
        params = WorkloadParams(
            num_streams=10, num_queries=5, joins_per_query=(k - 1, k - 1)
        )
        env = build_world(128, params, **world_seeds(100 + k, (32,)))
        td = env.optimizer("top-down", max_cs=32)
        bu = env.optimizer("bottom-up", max_cs=32)
        optimal = env.optimizer("optimal")

        def run(planner):
            plans, start = 0, time.perf_counter()
            for query in env.workload:
                plans += planner.plan(query).stats.get("plans_examined", 0)
            ms = (time.perf_counter() - start) * 1000 / len(env.workload)
            return plans / len(env.workload), ms

        td_plans, td_ms = run(td)
        bu_plans, bu_ms = run(bu)
        _, opt_ms = run(optimal)
        lines.append(
            f"  {k:>3} {exhaustive_space(k, 128):>12.3g} {td_plans:>10.3g} "
            f"{td_ms:>7.1f} {bu_plans:>10.3g} {bu_ms:>7.1f} {opt_ms:>11.1f}"
        )
        # the hierarchical algorithms stay far below the exhaustive
        # count (the margin widens rapidly with K, per beta's decay)
        budget = 0.05 if k == 3 else 0.01
        assert td_plans < budget * exhaustive_space(k, 128)
        assert bu_plans < budget * exhaustive_space(k, 128)
    lines.append(
        "  (every planner stays in milliseconds; the paper reports ~3 hours"
        " for a literal exhaustive search of a single K=5 query)"
    )
    save_text("ablation_query_size", "\n".join(lines))

    params = WorkloadParams(num_streams=10, num_queries=1, joins_per_query=(5, 5))
    env = build_world(128, params, **world_seeds(123, (32,)))
    optimizer = env.optimizer("top-down", max_cs=32)
    query = env.workload.queries[0]
    benchmark(lambda: optimizer.plan(query))
