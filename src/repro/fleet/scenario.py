"""The seeded fleet chaos scenario behind ``repro dash``.

:func:`chaos_telemetry_scenario` builds a small sharded fleet with the
resilience layer and the telemetry pipeline on, drives a churn workload
through a scripted coordinator-outage storm, and replays a couple of
deployments through the protocol simulator under a shared
:class:`~repro.obs.causal.CausalTracer` -- so the resulting
``repro.telemetry`` envelope exercises every part of the pipeline:
breaker-trip and cache-hit-rate alerts fire at deterministic ticks, and
the flight-recorder bundles carry causal trace ids that resolve in the
tracer (the same trees ``repro trace --causal`` renders).

Everything is a pure function of ``seed``: the fault plan is scripted
(coordinator outages only -- window faults are visible to every shard
through the one shared injector, unlike pop-once crash events), the
workload and topology are seeded, and no wall clock is read.  The
telemetry determinism tests replay this scenario twice and require
byte-identical envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.fleet.controller import FleetController
from repro.obs.causal import CausalTracer
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.resilience.degradation import ResilienceConfig
from repro.resilience.faults import (
    CoordinatorOutage,
    CoordinatorSlowdown,
    FaultInjector,
    FaultPlan,
)
from repro.service.service import churn_trace

#: Deployments replayed through the protocol simulator for causal hops.
REPLAY_DEPLOYMENTS = 2


@dataclass
class ChaosScenarioResult:
    """Everything the dashboard (and the tests) need from one run.

    Attributes:
        fleet: The fleet after the run (telemetry still bound).
        telemetry: The telemetry pipeline (``envelope()`` for export).
        causal: The shared causal tracer; bundle trace ids resolve here.
        plan: The scripted fault plan that was injected.
        decisions: Fleet admission decisions, in submission order.
        ticks: Virtual ticks driven.
    """

    fleet: FleetController
    telemetry: Telemetry
    causal: CausalTracer
    plan: FaultPlan
    decisions: list[Any] = field(default_factory=list)
    ticks: int = 0


def chaos_telemetry_scenario(
    seed: int = 7,
    num_shards: int = 2,
    nodes: int = 32,
    num_queries: int = 10,
    ticks: int = 24,
) -> ChaosScenarioResult:
    """Run the built-in chaos drill with telemetry on; see module docs.

    The fault script is anchored to the workload: coordinator outages
    hit the leaf coordinators the generated queries actually plan
    through, starting at tick 3 for 8 ticks -- squarely inside the churn
    window -- so the degradation ladder runs, breakers trip, and the
    default rule pack's ``breaker_tripped`` alert fires.
    """
    from repro.runtime import simulate_deployment
    from repro.workload import WorkloadParams, build_world

    world = build_world(
        nodes,
        WorkloadParams(
            num_streams=10, num_queries=num_queries, joins_per_query=(2, 4)
        ),
        network_seed=seed,
        workload_seed=seed + 1,
        hierarchy_seeds={6: 0},
    )
    net, workload, rates = world.network, world.workload, world.rates
    hierarchy = world.hierarchy()

    coordinators = sorted(
        {hierarchy.leaf_cluster(q.sink).coordinator for q in workload}
    )
    events: list[Any] = [
        CoordinatorOutage(time=3.0, node=c, duration=8.0)
        for c in coordinators[:2]
    ]
    events.append(
        CoordinatorSlowdown(
            time=14.0, node=coordinators[0], duration=5.0, factor=25.0
        )
    )
    plan = FaultPlan(events=events, seed=seed)
    injector = FaultInjector(plan)
    causal = CausalTracer()

    pipeline = Telemetry(TelemetryConfig())
    fleet = FleetController(
        num_shards,
        net,
        rates,
        hierarchy,
        policy="hash",
        budget=4,
        max_per_tick=2,
        service_kwargs={
            "resilience": ResilienceConfig(),
            "faults": injector,
            "causal": causal,
        },
        telemetry=pipeline,
    )

    trace = churn_trace(
        workload, lifetime=6.0, arrivals_per_tick=2, repeats=2
    )
    ordered = sorted(trace, key=lambda e: e.time)
    result = ChaosScenarioResult(
        fleet=fleet, telemetry=pipeline, causal=causal, plan=plan
    )
    clock = 0.0
    i = 0
    replayed = 0
    while clock < ticks:
        clock += 1.0
        fleet.tick(clock)
        result.ticks += 1
        while i < len(ordered) and ordered[i].time <= clock:
            event = ordered[i]
            result.decisions.append(
                fleet.submit(event.query, lifetime=event.lifetime)
            )
            i += 1
        # Once the first deployments exist, replay a couple through the
        # protocol simulator so causal hops land in the flight recorder
        # before the outage window trips any breakers.
        if replayed < REPLAY_DEPLOYMENTS:
            for shard in fleet.shards:
                for deployment in list(shard.engine.state.deployments):
                    if replayed >= REPLAY_DEPLOYMENTS:
                        break
                    simulate_deployment(
                        net, deployment, trace=causal, rates=rates
                    )
                    replayed += 1
    return result
