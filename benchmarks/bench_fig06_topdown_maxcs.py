"""Figure 6: Top-Down cumulative cost vs cluster size (max_cs sweep).

Same setup as Figure 5.  Paper observation: because Top-Down considers
all operator orderings at the top level regardless of max_cs, curves for
max_cs > 4 land close together; only very small clusters (many levels,
large approximations) hurt noticeably.
"""

import numpy as np

from benchmarks.conftest import bench_scale, save_result
from repro.experiments import figure06_top_down_cluster_sweep
from repro.workload import WorkloadParams, build_world, world_seeds


def test_fig06_top_down_cluster_sweep(benchmark):
    result = figure06_top_down_cluster_sweep(
        workloads=bench_scale(10, 3), queries=20, seed=0
    )
    final = {name: series[-1] for name, series in result.series.items()}
    large = [final[f"cluster size={cs}"] for cs in (8, 16, 32, 64)]
    spread = (max(large) - min(large)) / float(np.mean(large))
    save_result(result, extra=f"relative spread across max_cs in 8..64: {spread:.3f}")

    # Reproduction shape: big-cluster curves bunch together (small
    # relative spread) and max_cs=2 is the worst or near-worst.
    assert spread < 0.15
    assert final["cluster size=2"] >= min(final.values()) * 0.999

    params = WorkloadParams(num_streams=10, num_queries=1, joins_per_query=(2, 5))
    env = build_world(128, params, **world_seeds(1, (32,)))
    optimizer = env.optimizer("top-down", max_cs=32)
    query = env.workload.queries[0]
    benchmark(lambda: optimizer.plan(query))
