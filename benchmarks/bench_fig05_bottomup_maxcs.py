"""Figure 5: Bottom-Up cumulative cost vs cluster size (max_cs sweep).

Paper setup: 128-node transit-stub network, 10 streams, workloads of 20
queries (2-5 joins), averaged over 10 workloads; max_cs in
{2, 4, 8, 16, 32, 64}.  Paper claims cost decreases as max_cs grows
(~21% from 8 to 64): fewer levels means fewer approximations.
"""

from benchmarks.conftest import bench_scale, save_result
from repro.experiments import figure05_bottom_up_cluster_sweep
from repro.workload import WorkloadParams, build_world, world_seeds


def test_fig05_bottom_up_cluster_sweep(benchmark):
    result = figure05_bottom_up_cluster_sweep(
        workloads=bench_scale(10, 3), queries=20, seed=0
    )
    save_result(result)

    # Reproduction shape: cost falls substantially as clusters grow from
    # 2 to 8/16/32 (the paper's trend); the further 8 -> 64 improvement
    # is workload-sensitive and may flatten out (see EXPERIMENTS.md).
    final = {name: series[-1] for name, series in result.series.items()}
    assert final["cluster size=64"] < final["cluster size=2"]
    assert final["cluster size=8"] < 0.90 * final["cluster size=2"]
    assert min(final.values()) >= 0.85 * final["cluster size=64"]

    # Timed unit: one Bottom-Up plan at the paper's default max_cs=32.
    params = WorkloadParams(num_streams=10, num_queries=1, joins_per_query=(2, 5))
    env = build_world(128, params, **world_seeds(1, (32,)))
    optimizer = env.optimizer("bottom-up", max_cs=32)
    query = env.workload.queries[0]
    benchmark(lambda: optimizer.plan(query))
