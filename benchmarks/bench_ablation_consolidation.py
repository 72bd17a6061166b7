"""Ablation: multi-query consolidation vs one-at-a-time deployment.

The paper sketches multi-query optimization by consolidating queries at
a coordinator.  This bench compares naive incremental deployment
(reuse only sees what already happens to exist) against consolidation
(shared views identified across the batch and materialized first).
"""

from benchmarks.conftest import save_text
from repro.core.consolidation import consolidate, shared_views
from repro.core.optimizer import deploy_query, make_optimizer
from repro.workload import WorkloadParams, build_world, world_seeds


def test_consolidation_vs_naive(benchmark):
    # Few streams + clique predicates = heavy overlap across queries.
    params = WorkloadParams(
        num_streams=6, num_queries=15, joins_per_query=(2, 3), predicate_style="clique"
    )
    env = build_world(64, params, **world_seeds(7, (16,)))
    queries = env.workload.queries

    naive_state = env.fresh_state()
    naive_opt = env.optimizer("top-down", max_cs=16)
    for query in queries:
        deploy_query(naive_opt, query, naive_state)

    cons_state = env.fresh_state()
    cons_opt = env.optimizer("top-down", max_cs=16)
    consolidate(queries, cons_opt, cons_state, max_views=5, validate=True)

    blind_state = env.fresh_state()
    blind_opt = env.optimizer("top-down", max_cs=16)
    consolidate(queries, blind_opt, blind_state, max_views=5, validate=False)

    views = shared_views(queries)
    lines = [
        "multi-query consolidation vs naive incremental deployment",
        "",
        f"  shared views found across the batch: {len(views)}",
        f"  naive cumulative cost:                  {naive_state.total_cost():,.0f}",
        f"  consolidated (validated) cost:          {cons_state.total_cost():,.0f}",
        f"  consolidated (blind materialize) cost:  {blind_state.total_cost():,.0f}",
        f"  validated delta vs naive: {100 * (1 - cons_state.total_cost() / naive_state.total_cost()):.2f}%",
    ]
    save_text("ablation_consolidation", "\n".join(lines))

    assert views, "expected shared views in an overlapping batch"
    # validated consolidation never loses to naive deployment
    assert cons_state.total_cost() <= naive_state.total_cost() + 1e-6

    benchmark(lambda: shared_views(queries))
