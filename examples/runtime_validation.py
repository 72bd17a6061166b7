#!/usr/bin/env python
"""Tuple-level validation and failure recovery.

Two deeper runtime demonstrations:

1. *rate-model validation* -- run a planned deployment on the tuple-level
   data plane (Poisson sources, windowed symmetric hash joins) and
   compare the measured per-view rates against the analytic selectivity
   model the optimizers rely on;
2. *failure recovery* -- kill an operator-hosting coordinator node and
   watch the hierarchy elect backups and the affected queries re-deploy.

Run:  python examples/runtime_validation.py
"""

import repro
from repro.service import StreamQueryService


def validate_rate_model() -> None:
    print("== 1. Rate-model validation on the data plane ==")
    net = repro.transit_stub_by_size(32, seed=5)
    streams = {
        "ORDERS": repro.StreamSpec("ORDERS", 2, 60.0),
        "SHIPMENTS": repro.StreamSpec("SHIPMENTS", 11, 50.0),
        "ALERTS": repro.StreamSpec("ALERTS", 19, 40.0),
    }
    rates = repro.RateModel(streams)
    query = repro.Query(
        "audit",
        ["ORDERS", "SHIPMENTS", "ALERTS"],
        sink=25,
        predicates=[
            repro.JoinPredicate("ORDERS", "SHIPMENTS", 0.02),
            repro.JoinPredicate("SHIPMENTS", "ALERTS", 0.025),
        ],
    )
    deployment = repro.OptimalPlanner(net, rates).plan(query)
    print(f"plan: {deployment.plan.pretty()}")
    report = repro.run_dataplane(net, deployment, rates, duration=60.0, seed=1)
    print(f"{'view':<24}{'predicted':>10}{'measured':>10}")
    for label in sorted(report.predicted_rates, key=len):
        print(
            f"{label:<24}{report.predicted_rates[label]:>10.2f}"
            f"{report.measured_rates[label]:>10.2f}"
        )
    print(
        f"sink received {report.sink_tuples} tuples, "
        f"mean end-to-end latency {report.mean_latency * 1000:.1f} ms\n"
    )


def demonstrate_failover() -> None:
    print("== 2. Node failure and recovery ==")
    net = repro.transit_stub_by_size(32, seed=6)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=6, joins_per_query=(1, 3)),
        seed=7,
    )
    rates = workload.rate_model()
    service = StreamQueryService(repro.TopDownOptimizer(hierarchy, rates), net, rates,
                                 hierarchy=hierarchy)
    engine = service.engine
    for query in workload:
        service.submit(query)
    print(f"running: {len(engine.state.deployments)} queries, cost {engine.total_cost():.1f}")

    victim = next(node for (_, node) in engine.state.operators())
    protected = {s.source for s in rates.streams.values()} | {q.sink for q in workload}
    if victim in protected:
        victim = next(
            (n for (_, n) in engine.state.operators() if n not in protected), victim
        )
    print(f"failing node {victim} (hosts operators"
          f"{' and coordinates clusters' if any(c.coordinator == victim for lvl in hierarchy.levels for c in lvl) else ''})")
    roles = sorted({c.level for level in hierarchy.levels for c in level if c.coordinator == victim})
    report = service.handle_node_failure(victim)
    print(f"   coordinator roles lost: levels {roles or 'none'}")
    print(f"   affected queries: {report.retired}")
    print(f"   redeployed:       {report.resubmitted}")
    print(
        f"   unrecoverable:    {report.lost or 'none'}"
        + (
            "  (their base-stream source or sink lived on the failed node)"
            if report.lost
            else ""
        )
    )
    print(f"cost after recovery: {engine.total_cost():.1f}")


def main() -> None:
    validate_rate_model()
    demonstrate_failover()


if __name__ == "__main__":
    main()
