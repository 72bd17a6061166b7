"""Ablation: query-containment reuse (paper future work).

Workload: half the queries are unfiltered joins, half add per-stream
filters to the same joins.  Exact-signature reuse cannot share across
the two halves (signatures differ); containment reuse lets the filtered
queries consume the unfiltered operators and filter locally.
"""

import numpy as np

from benchmarks.conftest import save_text
from repro.core.exhaustive import OptimalPlanner
from repro.query.query import Query
from repro.query.stream import Filter
from repro.workload import WorkloadParams, build_world, world_seeds


def _with_filters(query: Query, selectivity: float = 0.3) -> Query:
    filters = [
        Filter(stream, f"{stream}.attr > threshold", selectivity)
        for stream in query.sources[:1]
    ]
    return Query(
        name=f"{query.name}_filtered",
        sources=query.sources,
        sink=(query.sink + 1) % 64,
        predicates=query.predicates,
        filters=filters,
    )


def test_containment_reuse_value(benchmark):
    params = WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(2, 3))
    env = build_world(64, params, **world_seeds(9, (16,)))
    base_queries = env.workload.queries
    filtered = [_with_filters(q) for q in base_queries]
    interleaved = [q for pair in zip(base_queries, filtered) for q in pair]

    def run(containment: bool) -> float:
        planner = OptimalPlanner(env.network, env.rates, reuse=True, containment=containment)
        state = env.fresh_state()
        for query in interleaved:
            state.apply(planner.plan(query, state))
        return state.total_cost()

    plain = run(containment=False)
    contained = run(containment=True)
    saving = 100 * (1 - contained / plain)
    lines = [
        "containment reuse: filtered queries consuming unfiltered views",
        "",
        f"  exact-signature reuse only: {plain:,.0f}",
        f"  with containment reuse:     {contained:,.0f}",
        f"  additional saving:          {saving:.2f}%",
    ]
    save_text("ablation_containment", "\n".join(lines))

    # containment can only add reuse options
    assert contained <= plain + 1e-6

    query = interleaved[1]
    planner = OptimalPlanner(env.network, env.rates, reuse=True, containment=True)
    state = env.fresh_state()
    state.apply(OptimalPlanner(env.network, env.rates).plan(interleaved[0], state))
    benchmark(lambda: planner.plan(query, state))
