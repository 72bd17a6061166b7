"""Figure 11: cumulative deployed cost on the prototype (32 nodes).

Paper setup: the same Emulab-like workload as Figure 10 (25 queries, 8
streams, 1-4 joins), deployed through the flow engine for cluster sizes
4 and 8.  Paper observation: Top-Down achieves lower deployed cost than
Bottom-Up (it considers all operator orderings at the top level), in
alignment with the simulation results.
"""

from benchmarks.conftest import save_result
from repro.experiments import figure11_prototype_cumulative_cost
from repro.runtime.engine import FlowEngine
from repro.workload import WorkloadParams, build_world, world_seeds


def test_fig11_prototype_cumulative_cost(benchmark):
    result = figure11_prototype_cumulative_cost(queries=25, seed=0)
    save_result(result)

    final = {name: series[-1] for name, series in result.series.items()}
    # Reproduction shape: Top-Down below Bottom-Up at equal cluster size.
    for cs in (4, 8):
        assert final[f"Top-Down (cluster size={cs})"] <= final[f"Bottom-Up (cluster size={cs})"] + 1e-6

    # Timed unit: engine deploy of one planned query.
    params = WorkloadParams(num_streams=8, num_queries=1, joins_per_query=(3, 3))
    env = build_world(32, params, **world_seeds(1, (8,)))
    optimizer = env.optimizer("top-down", max_cs=8)
    query = env.workload.queries[0]
    deployment = optimizer.plan(query)

    def unit():
        engine = FlowEngine(env.network, env.rates)
        engine.deploy(deployment)
        return engine.total_cost()

    benchmark(unit)
