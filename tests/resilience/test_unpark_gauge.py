"""``ResilientControl.unpark`` stamps the parked gauge with the caller's time.

Regression: ``unpark`` used to set ``resilience_parked_queries`` with no
time, so every ``retire`` of a live query on a resilience-armed service
appended a ``t = 0.0`` sample to the (unbounded) series -- out of order,
and one per retire whether or not anything had been parked.
"""

import repro
from repro.errors import PlanningError
from repro.resilience import ResilienceConfig
from repro.service import AdmissionController, StreamQueryService, churn_trace

SERIES = "resilience_parked_queries"


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


def test_parked_series_is_time_ordered_over_a_churn_replay_with_retires():
    service, workload = build_service()
    service.replay(churn_trace(workload, lifetime=None), drain=False)
    live = list(service.live_queries)
    assert live
    samples_before = len(service.metrics.series(SERIES))
    for name in live:
        service.tick()
        assert service.retire(name) is True
    series = service.metrics.series(SERIES)
    times = [time for time, _value in series]
    assert times == sorted(times)
    # Nothing was parked: each tick sampled the gauge once, no retire did.
    assert len(series) == samples_before + len(live)


def test_retiring_a_parked_query_records_the_gauge_at_the_clock():
    service, workload = build_service()
    victim = next(iter(workload))

    def failing(query, lifetime):
        raise PlanningError("coordinator down")

    service._deploy = failing
    service.tick(time=4.0)
    assert service.submit(victim).reason == "parked: coordinator down"
    service.tick(time=9.0)
    assert service.retire(victim.name) is False
    series = service.metrics.series(SERIES)
    assert series[-1] == (9.0, 0.0)
    assert [time for time, _ in series] == sorted(time for time, _ in series)
