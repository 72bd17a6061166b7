"""What a churn step does, counted, no clock: the same at 40 and 400 live.

A churn step here is one tick that retires two expired queries and two
cache-hit submissions.  Two of its terms used to walk the live set on
every call: the ``runtime_total_cost`` gauge summed every live flow price
after each deploy and undeploy, and the tick scanned every lifetime for
the due ones.  Now the gauge is summed when read (``flow_prices_summed``
is 0 while no telemetry reads it, and one sum per scrape when it does)
and the tick pops due entries off a heap (``expiry_entries_examined`` is
the two it retires), so the same script gives the same per-step counts
at either size.
"""

import repro
from repro.obs.telemetry import TelemetryConfig
from repro.perf.profiler import profiled
from repro.service import AdmissionController, StreamQueryService

_STEPS = 10


def churn_service(live: int, **layers):
    """A service holding ``live`` renamed cache-hit queries, two of them
    expiring at each of the next ``live / 2`` ticks."""
    net = repro.transit_stub_by_size(64, seed=3)
    hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=8, num_queries=20, joins_per_query=(1, 3)),
        seed=4,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    service = StreamQueryService(
        repro.TopDownOptimizer(hierarchy, rates, ads=ads),
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(budget=2 * live),
        **layers,
    )
    shapes = list(workload)
    for serial in range(live):
        shape = shapes[serial % len(shapes)]
        query = shape.renamed(f"{shape.name}#{serial}")
        assert service.submit(query, lifetime=1.0 + serial // 2).admitted
    return service, shapes


def step(service, shapes, serial: int, live: int) -> None:
    report = service.tick()
    assert len(report.retired) == 2
    for offset in range(2):
        shape = shapes[(serial + offset) % len(shapes)]
        query = shape.renamed(f"{shape.name}@{serial}.{offset}")
        assert service.submit(query, lifetime=live / 2).admitted


def counts_per_step(live: int) -> list[dict]:
    service, shapes = churn_service(live)
    out = []
    for serial in range(_STEPS):
        with profiled() as prof:
            step(service, shapes, serial, live)
        assert service.engine.state.num_deployments == live
        out.append(
            {key: prof.ops.get(key, 0) for key in ("flow_prices_summed", "expiry_entries_examined")}
        )
    return out


def test_a_churn_step_costs_the_same_at_40_and_400_live():
    small, large = counts_per_step(40), counts_per_step(400)
    assert small == large
    assert all(c == {"flow_prices_summed": 0, "expiry_entries_examined": 2} for c in small)


def test_with_telemetry_the_cost_is_summed_once_per_scrape():
    service, shapes = churn_service(40, telemetry=TelemetryConfig())
    gauge = service.registry.get("runtime_total_cost")
    for serial in range(_STEPS):
        with profiled() as prof:
            service.tick()
        # The scrape at the tick's end read the gauge: one sum over every flow.
        assert prof.ops["flow_prices_summed"] == len(service.engine.state.flows())
        assert gauge.value == service.total_cost()
        with profiled() as prof:
            for offset in range(2):
                shape = shapes[(serial + offset) % len(shapes)]
                service.submit(shape.renamed(f"{shape.name}@{serial}.{offset}"), lifetime=20.0)
        assert prof.ops.get("flow_prices_summed", 0) == 0  # nobody read it
