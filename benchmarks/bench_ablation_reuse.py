"""Ablation: operator-reuse value vs projection-widening inflation.

The paper notes reuse "may require additional columns to be projected".
We model that as a rate inflation on reused views.  This bench sweeps
the inflation factor: at 1.0 reuse is free extra columns; as inflation
grows, reuse becomes less attractive and the planner falls back to
duplicating operators -- savings shrink but never go negative (the
planner only reuses when it helps).
"""

from benchmarks.conftest import save_text
from repro.core.cost import RateModel
from repro.core.optimizer import deploy_query, make_optimizer
from repro.query.deployment import DeploymentState
from repro.workload import WorkloadParams, build_world, world_seeds


def test_reuse_value_vs_inflation(benchmark):
    params = WorkloadParams(num_streams=8, num_queries=20, joins_per_query=(2, 4))
    env = build_world(64, params, **world_seeds(5, (16,)))

    def run(inflation, reuse):
        rates = RateModel(env.workload.streams, reuse_rate_inflation=inflation)
        state = DeploymentState(
            env.network.cost_matrix(), rates.rate, rates.source, inflation
        )
        optimizer = make_optimizer(
            "top-down", env.network, rates, hierarchy=env.hierarchy(16), reuse=reuse
        )
        for query in env.workload:
            deploy_query(optimizer, query, state)
        return state.total_cost()

    baseline = run(1.0, reuse=False)
    lines = ["reuse saving vs projection-widening inflation (top-down, 20 queries)", ""]
    savings = {}
    for inflation in (1.0, 1.25, 1.5, 2.0):
        total = run(inflation, reuse=True)
        savings[inflation] = 100 * (1 - total / baseline)
        lines.append(f"  inflation {inflation:>4}: cost {total:,.0f}  saving {savings[inflation]:6.2f}%")
    lines.append(
        "  (note: cumulative savings need not be monotone in inflation --"
        " early reuse decisions steer later plan paths)"
    )
    save_text("ablation_reuse", "\n".join(lines))

    # reuse never hurts, at any inflation: each query's reuse decision is
    # taken only when it lowers that query's cost.
    assert all(v > 0.0 for v in savings.values())

    benchmark(lambda: run(1.0, reuse=True))
