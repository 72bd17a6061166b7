"""Figure 7: sub-optimality of TD/BU and the effect of operator reuse.

Paper setup: 128-node network, max_cs=32, 20 queries, optimal deployment
computed by DP.  Paper headlines: Top-Down with reuse ~10% above
optimal, Bottom-Up ~34%; reuse saves ~27% (TD) and ~30% (BU); TD ~19%
better than BU.
"""

from benchmarks.conftest import bench_scale, save_result
from repro.experiments import figure07_suboptimality_and_reuse
from repro.workload import WorkloadParams, build_world, world_seeds


def test_fig07_suboptimality_and_reuse(benchmark):
    result = figure07_suboptimality_and_reuse(
        workloads=bench_scale(10, 3), queries=20, seed=0
    )
    save_result(result)

    s = result.summary
    # Reproduction shape: optimal <= TD <= BU; reuse always helps.
    assert s["top_down_suboptimality_pct"] >= -1e-6
    assert s["bottom_up_suboptimality_pct"] > s["top_down_suboptimality_pct"]
    assert s["top_down_reuse_saving_pct"] > 0.0
    assert s["bottom_up_reuse_saving_pct"] > 0.0
    assert s["top_down_vs_bottom_up_pct"] > 0.0

    # Timed unit: the optimal subset-DP on the 128-node network.
    params = WorkloadParams(num_streams=10, num_queries=1, joins_per_query=(4, 4))
    env = build_world(128, params, **world_seeds(1, (32,)))
    optimizer = env.optimizer("optimal")
    query = env.workload.queries[0]
    benchmark(lambda: optimizer.plan(query))
