"""A query anchored at a node outside the live hierarchy is refused.

Its sink or a stream's source node has failed: neither planner can plan
it (Top-Down finds the stream advertised nowhere, Bottom-Up climbs past
the root), so the service turns it away at the door, rejects it when it
comes off the submission queue, and leaves it parked while it waits in
a parking lot -- on every service with a hierarchy, with or without the
resilience layer.
"""

import pytest

import repro
from repro.errors import UnknownQueryError
from repro.fleet import FleetController
from repro.resilience.degradation import ResilienceConfig
from repro.service import AdmissionController, AdmissionStatus, StreamQueryService
from tests.conftest import small_world

PLANNERS = {
    "top-down": repro.TopDownOptimizer,
    "bottom-up": repro.BottomUpOptimizer,
}


def build(planner="top-down", resilient=False, budget=16):
    world = small_world(4)
    hierarchy = world.hierarchy()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = PLANNERS[planner](hierarchy, world.rates, ads=ads)
    service = StreamQueryService(
        optimizer,
        world.network,
        world.rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(budget=budget),
        resilience=ResilienceConfig() if resilient else None,
    )
    return service, list(world.workload)


def first_source(service, query):
    stream = query.sources[0]
    return stream, service.rates.source(stream)


@pytest.mark.parametrize("resilient", [False, True], ids=["bare", "resilient"])
@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_submit_with_a_dead_source_is_rejected(planner, resilient):
    service, queries = build(planner, resilient)
    query = queries[0]
    stream, source = first_source(service, query)
    service.handle_node_failure(source)

    decision = service.submit(query, lifetime=5.0)

    assert decision.status is AdmissionStatus.REJECTED
    assert decision.reason == (
        f"source node {source} of stream {stream!r} is not a live hierarchy node"
    )
    assert service.admission.rejected_total == 1
    assert not service.is_live(query.name)


@pytest.mark.parametrize("planner", sorted(PLANNERS))
def test_submit_with_a_dead_sink_is_rejected_without_resilience(planner):
    service, queries = build(planner)
    query = queries[0]
    service.handle_node_failure(query.sink)

    decision = service.submit(query, lifetime=5.0)

    assert decision.status is AdmissionStatus.REJECTED
    assert decision.reason == f"sink {query.sink} is not a live hierarchy node"


@pytest.mark.parametrize("resilient", [False, True], ids=["bare", "resilient"])
def test_a_queued_query_whose_source_dies_is_rejected_at_drain(resilient):
    service, queries = build(resilient=resilient, budget=1)
    first = queries[0]
    assert service.submit(first, lifetime=1.0).admitted
    used = set(service.engine.state.deployment(first.name).placement.values())
    waiting, source = next(
        (query, node)
        for query in queries[1:]
        for node in sorted(service.rates.endpoints(query) - {query.sink} - used)
    )
    assert service.submit(waiting).status is AdmissionStatus.QUEUED
    service.handle_node_failure(source)
    admitted = service.admission.admitted_total

    report = service.tick(2.0)  # retires the first, then drains the queue

    assert report.retired == [first.name]
    assert report.deployed == [] and report.parked == []
    assert report.rejected == [waiting.name]
    assert service.admission.queue_depth == 0
    assert service.admission.rejected_total == 1
    assert service.admission.admitted_total == admitted
    assert not service.is_live(waiting.name)


def test_a_fleet_forgets_a_shard_queued_query_rejected_at_drain():
    """The shard's rejection reaches the fleet: the router lets go of the
    name, so it may be resubmitted, and nothing is left bound."""
    world = small_world(4)
    fleet = FleetController(1, world.network, world.rates, world.hierarchy(), budget=1)
    shard = fleet.shards[0]
    queries = list(world.workload)
    first = queries[0]
    assert fleet.submit(first, lifetime=1.0).admitted
    used = set(shard.engine.state.deployment(first.name).placement.values())
    waiting, source = next(
        (query, node)
        for query in queries[1:]
        for node in sorted(shard.rates.endpoints(query) - {query.sink} - used)
    )
    assert fleet.submit(waiting).status is AdmissionStatus.QUEUED
    shard.handle_node_failure(source)

    report = fleet.tick(2.0)

    assert report.rejected == [(waiting.name, 0)]
    assert fleet.shard_of(waiting.name) is None
    assert fleet.check_invariants() == []
    with pytest.raises(UnknownQueryError, match="not in the fleet"):
        fleet.retire(waiting.name)
    again = fleet.submit(waiting)
    assert again.rejected and "source node" in again.decision.reason


def test_a_parked_query_waits_while_its_source_is_dead():
    service, queries = build(resilient=True)
    query = queries[0]
    _, source = first_source(service, query)
    control = service.resilience
    control.park(service, query, 5.0, "test")
    service.handle_node_failure(source)  # advances the topology epoch

    report = service.tick(1.0)

    assert query.name not in report.deployed
    assert query.name in control.parked
