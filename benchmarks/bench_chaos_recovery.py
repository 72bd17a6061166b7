"""Chaos recovery: how fast and how well does the control plane heal?

Runs the same churning workload twice -- once clean, once under a seeded
:class:`repro.FaultPlan` (crashes, coordinator outages, slow-downs, a
stale-statistics window) -- and compares the two
trajectories:

* **recovery time**: ticks from each applied crash until the chaos run's
  live-query count catches the clean run's again;
* **degraded fraction**: deployments served by a lower rung of the
  degradation ladder instead of a full hierarchical re-plan;
* **cost inflation**: mean total network cost under chaos relative to
  the clean trajectory (degraded plans and re-placements are allowed to
  cost more; this quantifies how much more).
"""

import numpy as np

from benchmarks.conftest import bench_scale, save_text
from repro.hierarchy import AdvertisementIndex, build_hierarchy
from repro.core import TopDownOptimizer
from repro.network.topology import transit_stub_by_size
from repro.resilience import FaultInjector, FaultPlan, ResilienceConfig
from repro.resilience.faults import CoordinatorOutage, CoordinatorSlowdown, NodeCrash
from repro.service import AdmissionController, StreamQueryService, churn_trace
from repro.workload import WorkloadParams, generate_workload

SEED = 23


def _build(num_queries, faults=None):
    net = transit_stub_by_size(32, seed=SEED)
    hierarchy = build_hierarchy(net, max_cs=4, seed=0)
    workload = generate_workload(
        net,
        WorkloadParams(num_streams=8, num_queries=num_queries, joins_per_query=(1, 3)),
        seed=SEED + 1,
    )
    rates = workload.rate_model()
    ads = AdvertisementIndex(hierarchy)
    optimizer = TopDownOptimizer(hierarchy, rates, ads=ads)
    service = StreamQueryService(
        optimizer,
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(budget=10),
        resilience=ResilienceConfig() if faults is not None else None,
        faults=faults,
    )
    return service, workload, net


def _drive(service, events, duration):
    """Tick-by-tick replay; returns per-tick live counts and total costs."""
    events = sorted(events, key=lambda e: e.time)
    live, costs = [], []
    clock = 0.0
    i = 0
    while clock < duration:
        clock += 1.0
        service.tick(clock)
        while i < len(events) and events[i].time <= clock:
            service.submit(events[i].query, lifetime=events[i].lifetime)
            i += 1
        live.append(len(service.live_queries))
        costs.append(service.total_cost())
    return live, costs


def test_chaos_recovery(benchmark):
    duration = bench_scale(80, 40)
    num_queries = bench_scale(16, 10)
    repeats = bench_scale(4, 2)

    clean_service, workload, net = _build(num_queries)
    trace = churn_trace(workload, lifetime=6.0, arrivals_per_tick=2, repeats=repeats)
    live_clean, cost_clean = _drive(clean_service, list(trace), duration)

    protected = {spec.source for spec in workload.rate_model().streams.values()}
    protected |= {q.sink for q in workload}

    # Target the faults where they hurt: crash the nodes that actually
    # host operators, and take out the coordinator gating the most sinks
    # while submissions are arriving.
    from collections import Counter

    hierarchy = clean_service.hierarchy
    rates = workload.rate_model()
    probe = TopDownOptimizer(hierarchy, rates)
    host_usage: Counter = Counter()
    for query in workload:
        host_usage.update(probe.plan(query).placement.values())
    victims = [
        n for n, _ in host_usage.most_common() if n not in protected
    ][: bench_scale(4, 3)]
    coordinator_load = Counter(
        hierarchy.leaf_cluster(q.sink).coordinator for q in workload
    )
    hot_coordinator = coordinator_load.most_common(1)[0][0]

    targeted = [
        CoordinatorOutage(time=1.0, node=hot_coordinator, duration=duration * 0.5),
        CoordinatorSlowdown(
            time=1.0, node=hot_coordinator, duration=duration * 0.5, factor=20.0
        ),
    ]
    targeted += [
        NodeCrash(time=4.0 + 6.0 * i, node=node, rejoin_after=10.0)
        for i, node in enumerate(victims)
    ]
    generated = FaultPlan.generate(
        net.nodes(), seed=SEED, duration=duration * 0.8,
        crashes=0, protected=protected,
    )
    plan = FaultPlan(events=targeted + generated.events)
    faults = FaultInjector(plan)
    chaos_service, _, _ = _build(num_queries, faults=faults)
    live_chaos, cost_chaos = _drive(chaos_service, list(trace), duration)

    # recovery time per applied crash: ticks until the chaos trajectory's
    # live count catches the clean one again
    recoveries = []
    for entry in faults.applied:
        if entry["kind"] != "crash":
            continue
        idx = max(0, int(entry["time"]) - 1)
        caught = next(
            (j - idx for j in range(idx, duration) if live_chaos[j] >= live_clean[j]),
            None,
        )
        recoveries.append((entry["node"], len(entry["retired"]), caught))

    res = chaos_service.resilience.summary()
    deployed = chaos_service.deployed_total
    degraded = len(res["degraded_queries"])
    inflation = float(np.mean(cost_chaos)) / float(np.mean(cost_clean))

    recovered = [r for _, _, r in recoveries if r is not None]
    lines = [
        "chaos recovery: resilient control plane vs a clean run",
        "",
        f"  workload: {len(trace)} submissions over {duration} ticks "
        f"({repeats}x {num_queries} queries, lifetime 6, 2/tick), 32 nodes",
        f"  fault plan: {len(plan)} events ({len(faults.applied)} applied)",
        "",
        "  crash recovery (node, queries retired, ticks to catch clean run):",
    ]
    for node, retired, rec in recoveries:
        rec_text = f"{rec} ticks" if rec is not None else "not within horizon"
        lines.append(f"    node {node:>3}: {retired} retired, recovered in {rec_text}")
    lines += [
        "",
        f"  mean recovery: "
        + (f"{np.mean(recovered):.1f} ticks" if recovered else "n/a"),
        f"  degraded deployments: {degraded}/{deployed} "
        f"({degraded / max(1, deployed):.1%}) via fallback rungs; "
        f"{res['retries']} retries, {res['breaker_opens']} breaker opens",
        f"  parked: {res['parked_total']} total "
        f"({len(res['parked_now'])} still parked); "
        f"quarantined {res['quarantined_total']} nodes",
        f"  cost inflation: {inflation:.2f}x mean total cost vs clean "
        f"(clean {np.mean(cost_clean):,.0f}, chaos {np.mean(cost_chaos):,.0f})",
        f"  final: chaos {live_chaos[-1]} vs clean {live_clean[-1]} live queries; "
        f"hierarchy violations: {len(chaos_service.hierarchy.invariant_violations())}",
    ]
    save_text("chaos_recovery", "\n".join(lines))

    assert chaos_service.hierarchy.invariant_violations() == []
    crashed = set(faults.crashed)
    for d in chaos_service.engine.state.deployments:
        assert not (set(d.placement.values()) & crashed)

    # benchmark the hot path: one resilient control-plane tick
    benchmark(lambda: chaos_service.tick(chaos_service.clock + 1.0))
