"""``ResilientControl.unpark`` writes the parked gauge only when it unparks.

Regression: every ``retire`` of a live query on a resilience-armed
service used to write ``resilience_parked_queries`` whether or not
anything had been parked.
"""

import repro
from repro.errors import PlanningError
from repro.resilience import ResilienceConfig
from repro.service import AdmissionController, StreamQueryService, churn_trace

GAUGE = "resilience_parked_queries"


def build_service():
    net = repro.transit_stub_by_size(24, seed=5)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=6, joins_per_query=(2, 3)),
        seed=6,
    )
    rates = workload.rate_model()
    hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
    service = StreamQueryService(
        repro.make_optimizer("top-down", net, rates, hierarchy=hierarchy),
        net,
        rates,
        hierarchy=hierarchy,
        admission=AdmissionController(budget=4),
        resilience=ResilienceConfig(),
    )
    return service, workload


def test_a_retire_with_nothing_parked_leaves_the_parked_gauge_alone():
    service, workload = build_service()
    service.replay(churn_trace(workload, lifetime=None), drain=False)
    live = list(service.live_queries)
    assert live
    for name in live:
        cursor = service.registry.feed_cursor()
        assert service.retire(name) is True
        assert GAUGE not in service.registry.changes_since(cursor)
    assert service.registry.get(GAUGE).value == 0.0


def test_retiring_a_parked_query_writes_the_parked_gauge():
    service, workload = build_service()
    victim = next(iter(workload))

    def failing(query, lifetime):
        raise PlanningError("coordinator down")

    service._deploy = failing
    service.tick(time=4.0)
    assert service.submit(victim).reason == "parked: coordinator down"
    assert service.registry.get(GAUGE).value == 1.0
    cursor = service.registry.feed_cursor()
    assert service.retire(victim.name) is False
    assert GAUGE in service.registry.changes_since(cursor)
    assert service.registry.get(GAUGE).value == 0.0
