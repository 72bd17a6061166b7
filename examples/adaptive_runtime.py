#!/usr/bin/env python
"""Self-adaptive runtime: congestion detection and query migration.

IFLOW's middleware "re-triggers the query optimization algorithm when
the changes in network, load or data conditions demand recomputing".
Here that is the lifecycle service built with ``adaptivity=``:

1. submit the workload to the service and simulate each deployment's
   protocol timeline (coordinator messages + planning computation),
2. congest the hottest link (its per-unit cost jumps 40x); the next
   tick re-prices the live flows and moves the topology epoch,
3. the adaptivity loop re-evaluates every live query and migrates those
   whose re-plan pays back the state it must move.  A query whose
   operators other queries reuse stays where it is: moving it would
   strand its reusers.

The world (transit-stub seed 29, workload seed 30) is one where the
congestion alone makes migrations pay: two queries move an operator off
the congested path, and halving every link cost instead moves nothing.
In the seed-2 / seed-3 world, by contrast, the only queries that gain
from moving are q0-q2, and each provides a view another query reuses,
so nothing may move.

Run:  python examples/adaptive_runtime.py
"""

import repro
from repro.adaptive import AdaptivityConfig
from repro.service import StreamQueryService


def main() -> StreamQueryService:
    net = repro.transit_stub_by_size(32, seed=29)
    hierarchy = repro.build_hierarchy(net, max_cs=8, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=8, num_queries=8, joins_per_query=(1, 4)),
        seed=30,
    )
    rates = workload.rate_model()
    service = StreamQueryService(
        repro.TopDownOptimizer(hierarchy, rates),
        net,
        rates,
        hierarchy=hierarchy,
        adaptivity=AdaptivityConfig(query_cooldown=0.0, max_migrations_per_tick=8),
    )

    print("== deploying the workload (with protocol timing) ==")
    for i, query in enumerate(workload):
        service.submit(query, time=float(i))
        timeline = repro.simulate_deployment(
            net, service.engine.state.deployment(query.name)
        )
        print(
            f"   {query.name}: {len(query.sources)} streams, "
            f"deployed in {timeline.duration * 1000:6.1f} ms "
            f"({timeline.messages} messages, {timeline.tasks} planning tasks)"
        )
    print(f"\nsteady-state cost: {service.total_cost():.1f}")

    hottest = service.engine.hottest_links(3)
    print("hottest links (rate crossing):")
    for load in hottest:
        print(f"   {load.u:>3} -- {load.v:<3} rate {load.rate:9.1f}  cost/unit {load.cost:5.2f}")

    print("\n== congesting the hottest link (cost x40) ==")
    victim = hottest[0]
    net.set_link_cost(victim.u, victim.v, victim.cost * 40)

    # Tick until a pass over the live queries commits nothing.
    now, migrations = float(len(workload)), []
    while True:
        report = service.tick(now)
        migrations += [m for m in report.migrations if m.committed]
        if not report.migrated:
            break
        now += 1.0
    live = service.engine.state.deployments
    print(f"   topology epoch: {service.topology_epoch}, "
          f"queries evaluated: {len(live)}")
    # Ask the policy again why each query that did not move stays.
    moved = {m.query for m in migrations}
    costs = service.network.cost_matrix()
    for deployment in sorted(live, key=lambda d: d.query.name):
        if deployment.query.name not in moved:
            decision = service.adaptivity.policy.evaluate(service.engine.state, deployment, costs)
            print(f"      {decision.query}: stays ({decision.reason})")

    # Only a migrated query's own flows change, so the congested cost of
    # the old placements is today's cost plus what the migrations saved.
    after = service.total_cost()
    saved = sum(m.old_cost - m.new_cost for m in migrations)
    print(f"   cost at new prices before migrating: {after + saved:12.1f}")
    print(f"   cost after migrating:                {after:12.1f}")
    print(f"   queries migrated: {len(migrations)} of {len(live)}")
    for m in migrations:
        print(
            f"      {m.query}: {m.old_cost:10.1f} -> {m.new_cost:10.1f}"
            f"  (saves {m.old_cost - m.new_cost:.1f}, "
            f"{m.operators_moved} operator(s) moved)"
        )
    print(f"\nadaptation recovered {100 * saved / (after + saved):.1f}% "
          "of the congestion-inflated cost")
    return service


if __name__ == "__main__":
    main()
