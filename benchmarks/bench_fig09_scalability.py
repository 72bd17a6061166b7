"""Figure 9: search-space scalability with network size.

Paper setup: 10 queries joining 4 of 100 streams, transit-stub networks
of 128..1024 nodes, max_cs=32.  The plot is log-scale plans-considered:
exhaustive (Lemma 1) explodes, the Theorem 2/4 analytical bounds stay
nearly flat, and the measured Top-Down / Bottom-Up counts cut the search
space by >=99% with Bottom-Up ~45% below Top-Down.
"""

from benchmarks.conftest import bench_scale, save_result
from repro.experiments import figure09_search_space_scalability
from repro.workload import WorkloadParams, build_world, world_seeds


def test_fig09_search_space_scalability(benchmark):
    sizes = (128, 256, 512, 1024) if bench_scale(1, 0) else (128, 256, 512, 1024)
    result = figure09_search_space_scalability(network_sizes=sizes, seed=0)
    save_result(result)

    s = result.summary
    assert s["min_search_space_reduction_pct"] >= 99.0
    # the analytical worst-case bounds are nearly flat across sizes
    assert s["bound_flatness_ratio"] < 3.0
    # measured Top-Down counts always sit below the worst-case bounds
    for td, bound in zip(
        result.series["top-down (measured)"], result.series["analytical bound (Thm 2/4)"]
    ):
        assert td <= bound
    # Bottom-Up also respects the worst-case bound and stays orders of
    # magnitude below exhaustive
    for bu, ex, bound in zip(
        result.series["bottom-up (measured)"],
        result.series["exhaustive (Lemma 1)"],
        result.series["analytical bound (Thm 2/4)"],
    ):
        assert bu < 0.01 * ex
        assert bu <= bound

    # Timed unit: Top-Down planning on the 1024-node network.
    params = WorkloadParams(num_streams=100, num_queries=1, joins_per_query=(3, 3))
    env = build_world(1024, params, **world_seeds(1, (32,)))
    optimizer = env.optimizer("top-down", max_cs=32)
    query = env.workload.queries[0]
    benchmark(lambda: optimizer.plan(query))
