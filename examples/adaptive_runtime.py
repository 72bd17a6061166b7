#!/usr/bin/env python
"""Self-adaptive runtime: congestion detection and query migration.

Reproduces IFLOW's Middleware-Layer behaviour on the simulated runtime:

1. deploy queries through the flow engine and simulate each deployment's
   protocol timeline (coordinator messages + planning computation),
2. congest the hottest link (its per-unit cost jumps 40x),
3. let the adaptive middleware detect the change, re-optimize and
   migrate the affected queries.

Run:  python examples/adaptive_runtime.py
"""

import repro


def main() -> None:
    net = repro.transit_stub_by_size(32, seed=2)
    hierarchy = repro.build_hierarchy(net, max_cs=8, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=8, num_queries=8, joins_per_query=(1, 4)),
        seed=3,
    )
    rates = workload.rate_model()

    engine = repro.FlowEngine(net, rates)
    optimizer = repro.TopDownOptimizer(hierarchy, rates)

    costs: list[tuple[float, float]] = []  # (time, total cost) after each step

    print("== deploying the workload (with protocol timing) ==")
    for i, query in enumerate(workload):
        deployment = optimizer.plan(query, engine.state)
        timeline = repro.simulate_deployment(net, deployment)
        engine.deploy(deployment, time=float(i))
        costs.append((engine.clock, engine.total_cost()))
        print(
            f"   {query.name}: {len(query.sources)} streams, "
            f"deployed in {timeline.duration * 1000:6.1f} ms "
            f"({timeline.messages} messages, {timeline.tasks} planning tasks)"
        )
    print(f"\nsteady-state cost: {engine.total_cost():.1f}")

    hottest = engine.hottest_links(3)
    print("hottest links (rate crossing):")
    for load in hottest:
        print(f"   {load.u:>3} -- {load.v:<3} rate {load.rate:9.1f}  cost/unit {load.cost:5.2f}")

    print("\n== congesting the hottest link (cost x40) ==")
    victim = hottest[0]
    net.set_link_cost(victim.u, victim.v, victim.cost * 40)

    middleware = repro.AdaptiveMiddleware(engine, optimizer, improvement_threshold=0.05)
    report = middleware.run_epoch(time=100.0)
    costs.append((engine.clock, engine.total_cost()))
    print(f"   adaptation triggered: {report.triggered}")
    print(f"   cost at new prices before migrating: {report.cost_before:12.1f}")
    print(f"   cost after migrating:                {report.cost_after:12.1f}")
    print(f"   queries migrated: {len(report.migrations)} of {report.considered}")
    for migration in report.migrations:
        print(
            f"      {migration.query_name}: {migration.old_cost:10.1f}"
            f" -> {migration.new_cost:10.1f}  (saves {migration.saving:.1f})"
        )

    saving = 100 * (1 - report.cost_after / report.cost_before)
    print(f"\nadaptation recovered {saving:.1f}% of the congestion-inflated cost")

    print("\n== total cost sampled after each step ==")
    for time, value in costs[-5:]:
        print(f"   t={time:6.1f}  total_cost={value:12.1f}")


if __name__ == "__main__":
    main()
