"""No feasible placement is a capacity verdict, not a coordinator fault.

With the resource layer armed, the resilience ladder plans through the
same feasible-planning step as the bare path: a query that does not fit
parks with the resource layer.  It is never retried, never opens a
breaker and never falls through to the unconstrained baseline rung --
so with no faults injected, arming resilience changes nothing.
"""

import pytest

import repro
from repro.resilience.degradation import ResilienceConfig
from repro.resilience.faults import CoordinatorOutage, FaultInjector, FaultPlan
from repro.resilience.policy import BreakerState
from repro.resources import ResourceConfig, uniform_capacities
from tests.resources.test_service_resources import build_service

CAPACITIES = {
    "bounded": dict(cpu=600.0, memory=400.0, bandwidth=800.0),
    "scarce": dict(cpu=300.0, memory=200.0, bandwidth=400.0),
}


def run(caps, resilient):
    net = repro.transit_stub_by_size(32, seed=47)
    config = ResourceConfig(capacities=uniform_capacities(net, **caps))
    layers = {"resilience": ResilienceConfig()} if resilient else {}
    service, workload, _ = build_service(config, num_queries=12, **layers)
    decisions = [
        service.submit(query, lifetime=100.0, time=float(i))
        for i, query in enumerate(workload)
    ]
    for t in range(12, 16):
        service.tick(float(t))
    placements = {
        d.query.name: d.placement for d in service.engine.state.deployments
    }
    return service, decisions, placements


@pytest.mark.parametrize("caps", sorted(CAPACITIES))
def test_resilience_changes_nothing_without_faults(caps):
    bare, bare_decisions, bare_placements = run(CAPACITIES[caps], False)
    armed, armed_decisions, armed_placements = run(CAPACITIES[caps], True)
    assert any(
        d.reason.startswith("parked:") for d in bare_decisions
    ), "capacities must force a park"

    assert armed_decisions == bare_decisions
    assert armed_placements == bare_placements
    assert armed.total_cost() == bare.total_cost()
    assert sorted(armed.resources.parked) == sorted(bare.resources.parked)
    assert armed.resources.shed_total == bare.resources.shed_total
    summary = armed.resilience.summary()
    assert summary["retries"] == 0
    assert summary["fallbacks"] == 0
    assert summary["breaker_opens"] == 0
    assert summary["parked_total"] == 0
    assert summary["degraded_queries"] == []


def test_a_capacity_verdict_closes_a_half_open_breaker():
    """A half-open coordinator that answers, only to find no room, is
    healthy: its probe must not stay in flight, or every later query at
    that leaf would skip the hierarchical rung for the rest of the run."""
    net = repro.transit_stub_by_size(32, seed=47)
    config = ResourceConfig(
        capacities=uniform_capacities(net, cpu=400.0, memory=250.0, bandwidth=500.0)
    )
    service, workload, _ = build_service(config, num_queries=12)
    queries = {query.name: query for query in workload}
    big, small = queries["q1"], queries["q9"]  # one leaf; only ``small`` fits
    leaf = service.hierarchy.leaf_cluster(big.sink).coordinator
    assert service.hierarchy.leaf_cluster(small.sink).coordinator == leaf
    faults = FaultInjector(FaultPlan([CoordinatorOutage(time=0.0, node=leaf, duration=1.0)]))
    service, _, _ = build_service(
        config, num_queries=12, resilience=ResilienceConfig(), faults=faults
    )
    control = service.resilience
    service.tick(0.0)

    assert service.submit(big, lifetime=100.0, time=0.0).reason.startswith("parked:")
    assert control.breakers.breaker(leaf).state is BreakerState.OPEN
    # Past the recovery window the breaker lets one probe through; the
    # coordinator answers, and the placement does not fit.
    again = big.renamed("q1-again")
    assert service.submit(again, lifetime=100.0, time=20.0).reason.startswith("parked:")
    assert control.breakers.breaker(leaf).state is BreakerState.CLOSED

    assert service.submit(small, lifetime=100.0, time=21.0).admitted
    assert "resilience_rung" not in service.engine.state.deployment(small.name).stats
    assert small.name not in control.degraded_queries
