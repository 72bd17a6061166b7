#!/usr/bin/env python
"""Trace walkthrough: watch the optimizer think, then export why.

Plans one 5-way join query with ``explain=True`` and walks through the
three observability artifacts that produces:

1. the span tree of the optimization (per-coordinator planning tasks,
   candidate/prune counters, nested exactly as the recursion ran),
2. the :class:`repro.PlanExplanation` -- why this join order, why each
   operator landed where it did, what was reused, what was pruned,
3. the same artifacts as JSON via :func:`repro.trace_to_json` /
   :func:`repro.explanation_to_json` (what ``repro trace --json`` emits).

Run:  python examples/trace_walkthrough.py
"""

import repro


def main() -> None:
    print("== Building the substrate ==")
    net = repro.transit_stub_by_size(48, seed=7)
    hierarchy = repro.build_hierarchy(net, max_cs=8, seed=0)
    print(f"network: {net.num_nodes} nodes, {net.num_links} links")
    print(f"hierarchy: {hierarchy}\n")

    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=4, joins_per_query=(4, 4)),
        seed=11,
    )
    rates = workload.rate_model()
    query = workload.queries[0]  # a 5-way join (4 join predicates)
    print(f"query {query.name}: join {' * '.join(query.sources)} -> sink {query.sink}\n")

    print("== Planning under an installed tracer with explain=True ==")
    tracer = repro.Tracer()
    optimizer = repro.TopDownOptimizer(hierarchy, rates)
    with repro.tracing(tracer):
        deployment = optimizer.plan(query, None, explain=True)
    print(f"plan: {deployment.plan.pretty()}")
    print(f"estimated cost: {deployment.stats['est_cost']:,.1f}/unit-time\n")

    print("== 1. The span tree ==")
    root = tracer.last_root
    print(root.render())
    total_plans = root.total("plans_examined")
    pruned = root.total("pruned_cross_trees")
    print(f"\nacross all spans: {total_plans:g} plans examined, "
          f"{pruned:g} cross-product trees pruned\n")

    print("== 2. The plan explanation ==")
    print(deployment.explanation.render())

    print("\n== 3. Exported as JSON ==")
    trace_json = repro.trace_to_json(root)
    explanation_json = repro.explanation_to_json(deployment.explanation)
    print(f"trace document: {len(trace_json)} bytes; "
          f"explanation document: {len(explanation_json)} bytes")
    rebuilt = repro.trace_from_json(trace_json)
    assert rebuilt.total("plans_examined") == total_plans
    explanation = repro.explanation_from_json(explanation_json)
    assert explanation.plan == deployment.plan.pretty()
    print("round-trip check: counters and join order survive serialization")


if __name__ == "__main__":
    main()
