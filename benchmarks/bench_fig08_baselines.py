"""Figure 8: comparison with existing approaches.

Paper setup: 128-node network, max_cs=32 hierarchy for TD/BU, 5 zones
for In-network, 3-D cost space with 40 iterations for Relaxation,
operator reuse considered for all.  Paper headlines: TD saves ~40% vs
In-network and ~59% vs Relaxation; BU saves ~27% and ~49%.
"""

from benchmarks.conftest import bench_scale, save_result
from repro.experiments import figure08_baseline_comparison
from repro.workload import WorkloadParams, build_world, world_seeds


def test_fig08_baseline_comparison(benchmark):
    result = figure08_baseline_comparison(
        workloads=bench_scale(10, 3), queries=20, seed=0
    )
    save_result(result)

    s = result.summary
    final = {name: series[-1] for name, series in result.series.items()}
    # Reproduction shape: exhaustive <= TD <= BU, and both hierarchical
    # algorithms beat both phased baselines.
    assert final["exhaustive (optimal)"] <= final["top-down with reuse"] + 1e-6
    assert s["td_savings_vs_relaxation_pct"] > 0.0
    assert s["td_savings_vs_in_network_pct"] > 0.0
    assert s["td_savings_vs_relaxation_pct"] >= s["bu_savings_vs_relaxation_pct"] - 1e-6

    # Timed unit: one Relaxation plan (40 iterations, 3-D cost space).
    params = WorkloadParams(num_streams=10, num_queries=1, joins_per_query=(3, 3))
    env = build_world(128, params, **world_seeds(1, (32,)))
    optimizer = env.optimizer("relaxation")
    query = env.workload.queries[0]
    benchmark(lambda: optimizer.plan(query))
