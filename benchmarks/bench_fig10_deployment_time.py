"""Figure 10: query deployment time vs query size (prototype simulation).

Paper setup: 32 Emulab nodes (GT-ITM topology, 1-60 ms delays), 25
queries over 8 streams with 1-4 joins, cluster sizes 4 and 8.  Paper
headlines: Bottom-Up deploys ~70% faster than Top-Down (it rarely needs
the whole hierarchy) and Top-Down gets faster with larger max_cs (fewer
levels to traverse).  Our simulation reproduces both directions; the
Bottom-Up advantage is smaller in magnitude (see EXPERIMENTS.md).
"""

import numpy as np

from benchmarks.conftest import save_result
from repro.experiments import figure10_deployment_time
from repro.runtime.protocol import simulate_deployment
from repro.workload import WorkloadParams, build_world, world_seeds


def test_fig10_deployment_time(benchmark):
    result = figure10_deployment_time(queries=25, seed=0)
    save_result(result)

    s = result.summary
    # Reproduction shape: BU faster overall; TD slower with small max_cs.
    assert s["bu_faster_than_td_pct"] > 0.0
    assert s["td_cs4_minus_cs8_ratio"] > 1.0

    # Timed unit: one full protocol simulation (plan + replay).
    params = WorkloadParams(num_streams=8, num_queries=1, joins_per_query=(3, 3))
    env = build_world(32, params, **world_seeds(1, (4,)))
    optimizer = env.optimizer("top-down", max_cs=4)
    query = env.workload.queries[0]

    def unit():
        deployment = optimizer.plan(query)
        return simulate_deployment(env.network, deployment)

    benchmark(unit)
