#!/usr/bin/env python
"""Query lifecycle service walkthrough: churn, caching, epochs, admission.

The optimizer library plans one query at a time; the
:class:`repro.StreamQueryService` is the long-running control plane that
survives query churn.  This walkthrough shows its whole surface:

1. submit a burst of queries against a small concurrent-deployment
   budget -- some deploy immediately, the rest queue (backpressure);
2. tick the service so retiring queries free budget for queued ones;
3. resubmit an identical (but source-order-permuted, renamed) query and
   watch it hit the plan cache -- no optimizer invocation;
4. re-estimate stream statistics, which bumps the statistics epoch and
   forces a fresh plan;
5. fail a node and let the service retire + re-admit the affected
   queries through normal admission.

Run:  python examples/service_churn.py
"""

import repro


def main() -> None:
    net = repro.transit_stub_by_size(32, seed=11)
    hierarchy = repro.build_hierarchy(net, max_cs=8, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=8, num_queries=10, joins_per_query=(2, 4)),
        seed=13,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = repro.TopDownOptimizer(hierarchy, rates, ads=ads)

    service = repro.StreamQueryService(
        optimizer,
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=repro.AdmissionController(budget=4, max_per_tick=2),
    )

    print("== 1. burst of submissions against a budget of 4 ==")
    for query in workload:
        decision = service.submit(query, lifetime=6.0)
        note = f"(queue position {decision.queue_position})" if decision.queue_position else ""
        print(f"   {query.name}: {decision.status.value} {note}")
    print(f"   live={len(service.live_queries)}  queued={service.admission.queue_depth}")

    print("\n== 2. ticking: retirements free budget, the queue drains ==")
    for _ in range(25):
        report = service.tick()
        if report.deployed or report.retired:
            print(
                f"   t={report.time:4.1f}  deployed {report.deployed or '-'}  "
                f"retired {report.retired or '-'}"
            )
        if service.admission.queue_depth == 0 and not service.live_queries:
            break

    print(f"\n   plans computed so far: {service.plans_computed}")

    print("\n== 3. resubmitting an isomorphic query: plan-cache hit ==")
    original = workload.queries[0]
    permuted = repro.Query(
        "q0-again",
        sources=sorted(original.sources, reverse=True),
        sink=original.sink,
        predicates=original.predicates,
        window=original.window,
    )
    print(f"   fingerprints equal: "
          f"{repro.query_fingerprint(original) == repro.query_fingerprint(permuted)}")
    before = service.plans_computed
    service.submit(permuted)
    print(f"   optimizer invoked: {service.plans_computed != before} "
          f"(cache hit rate {service.cache.hit_rate:.1%})")

    print("\n== 4. statistics change: epoch bump forces a re-plan ==")
    doubled = {
        name: repro.StreamSpec(name, spec.source, spec.rate * 2.0)
        for name, spec in rates.streams.items()
    }
    rates.update_streams(doubled)
    before = service.plans_computed
    service.retire("q0-again")
    service.submit(permuted, time=service.clock + 1)
    print(f"   statistics epoch: {service.statistics_epoch}")
    print(f"   optimizer invoked: {service.plans_computed != before}")

    print("\n== 5. node failure: retire + re-admit through the service ==")
    for query in workload.queries[1:4]:
        service.submit(
            repro.Query(
                f"{query.name}-live",
                sources=query.sources,
                sink=query.sink,
                predicates=query.predicates,
                window=query.window,
            )
        )
    protected = {spec.source for spec in rates.streams.values()}
    protected |= {d.query.sink for d in service.engine.state.deployments}
    victim = next(
        (node for (_, node) in service.engine.state.operators() if node not in protected),
        next(node for (_, node) in service.engine.state.operators()),
    )
    report = service.handle_node_failure(victim)
    print(f"   node {report.node} failed")
    print(f"   retired: {report.retired or '-'}")
    print(f"   resubmitted: {report.resubmitted or '-'}")
    print(f"   lost (sink/source died): {report.lost or '-'}")
    print(f"   topology epoch: {service.topology_epoch}")

    print("\n== service metrics (from the metric registry) ==")
    for metric in service.registry.names():
        instrument = service.registry.get(metric)
        if metric.startswith("service_") and instrument.kind != "histogram":
            print(f"   {metric:32s} value={instrument.value:8.3f}")
    planning = service.registry.get("service_planning_seconds").summary()
    print(f"   {'service_planning_seconds':32s} count={planning['count']:.0f} "
          f"p50={planning['p50'] * 1000:.2f} ms")


if __name__ == "__main__":
    main()
