"""Ablation: clustering method behind the hierarchy.

The paper clusters by traversal cost with K-Means.  This bench measures
how much that choice matters: hierarchies built with cost-aware k-means
or k-medoids should yield cheaper Top-Down deployments than hierarchies
built from random clusters (which destroy the locality that makes
level-l estimates meaningful).
"""

import numpy as np

from benchmarks.conftest import save_text
from repro.core.optimizer import deploy_query, make_optimizer
from repro.hierarchy import build_hierarchy
from repro.workload import WorkloadParams, build_world, world_seeds


def test_clustering_method_matters(benchmark):
    params = WorkloadParams(num_streams=10, num_queries=15, joins_per_query=(2, 5))
    env = build_world(128, params, **world_seeds(3, (16,)))
    totals = {}
    for method in ("kmeans", "kmedoids", "random"):
        hierarchy = build_hierarchy(env.network, max_cs=16, seed=0, method=method)
        optimizer = make_optimizer("top-down", env.network, env.rates, hierarchy=hierarchy)
        state = env.fresh_state()
        for query in env.workload:
            deploy_query(optimizer, query, state)
        totals[method] = state.total_cost()

    lines = ["hierarchy clustering method vs Top-Down deployed cost", ""]
    for method, total in totals.items():
        lines.append(f"  {method:>10}: {total:,.0f}")
    penalty = 100 * (totals["random"] / min(totals["kmeans"], totals["kmedoids"]) - 1)
    lines.append(f"  random-clustering penalty vs best cost-aware: {penalty:.1f}%")
    save_text("ablation_clustering", "\n".join(lines))

    # Cost-aware clustering should not lose to random clustering.
    assert min(totals["kmeans"], totals["kmedoids"]) <= totals["random"] * 1.02

    benchmark(lambda: build_hierarchy(env.network, max_cs=16, seed=1))
