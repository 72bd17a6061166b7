#!/usr/bin/env python
"""Multi-query optimization: incremental reuse and batch consolidation.

Deploys an overlapping workload of 20 queries three ways and compares
cumulative communication cost:

* without operator reuse (every query recomputes everything),
* with incremental reuse (later queries snap onto earlier operators via
  stream advertisements -- the paper's mechanism),
* with batch consolidation (shared views identified across the whole
  batch and materialized first when beneficial).

Run:  python examples/multi_query_sharing.py
"""

import repro


def main() -> None:
    net = repro.transit_stub_by_size(64, seed=4)
    hierarchy = repro.build_hierarchy(net, max_cs=16, seed=0)
    # few streams + clique predicates => heavy overlap between queries
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(
            num_streams=6,
            num_queries=20,
            joins_per_query=(2, 3),
            predicate_style="clique",
        ),
        seed=5,
    )
    rates = workload.rate_model()

    def fresh_state():
        return repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)

    print(f"workload: {len(workload)} queries over {len(workload.streams)} streams\n")

    print("== shared views across the batch ==")
    views = repro.shared_views(workload.queries)
    for sv in views[:6]:
        print(f"   {sv.signature.label():<12} wanted by {len(sv.queries)} queries")
    if len(views) > 6:
        print(f"   ... and {len(views) - 6} more\n")

    results = {}

    # 1. no reuse
    state = fresh_state()
    optimizer = repro.TopDownOptimizer(hierarchy, rates, reuse=False)
    for query in workload:
        repro.deploy_query(optimizer, query, state)
    results["no reuse"] = state

    # 2. incremental reuse
    state = fresh_state()
    optimizer = repro.TopDownOptimizer(hierarchy, rates, reuse=True)
    curve = []
    for query in workload:
        repro.deploy_query(optimizer, query, state)
        curve.append(state.total_cost())
    results["incremental reuse"] = state

    # 3. batch consolidation
    state = fresh_state()
    optimizer = repro.TopDownOptimizer(hierarchy, rates, reuse=True)
    repro.consolidate(workload.queries, optimizer, state, max_views=6)
    results["consolidated batch"] = state

    print("== cumulative cost per unit time ==")
    base = results["no reuse"].total_cost()
    for label, st in results.items():
        saving = 100 * (1 - st.total_cost() / base)
        print(
            f"   {label:<20} {st.total_cost():12.1f}"
            f"   ({st.num_operators} operators, {saving:5.1f}% vs no reuse)"
        )

    print("\n== reuse curve (incremental) ==")
    for i in range(0, len(curve), 4):
        print(f"   after {i + 1:>2} queries: {curve[i]:12.1f}")


if __name__ == "__main__":
    main()
