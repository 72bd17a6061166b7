"""With ``adaptivity=None`` the adaptive layer must change nothing.

The contract mirrors the resilience layer's: an armed adaptivity loop
that never observes drift makes byte-identical planning decisions to a
default service -- the loop only *acts* once the monitor publishes.
"""

import repro
from repro.adaptive import AdaptivityConfig
from repro.service import AdmissionController, StreamQueryService, churn_trace

#: summary keys the optional layers themselves add
_VOLATILE = {
    "resilience",
    "faults",
    "adaptivity",
}


def build_service(adaptivity=None, seed=47):
    net = repro.transit_stub_by_size(32, seed=seed)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(1, 3)),
        seed=seed + 1,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = repro.TopDownOptimizer(hierarchy, rates, ads=ads)
    service = StreamQueryService(
        optimizer,
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(budget=6),
        adaptivity=adaptivity,
    )
    return service, workload


class TestAdaptivityParity:
    def test_replay_is_identical_with_and_without_the_loop(self):
        plain, workload = build_service(adaptivity=None)
        armed, _ = build_service(adaptivity=AdaptivityConfig())
        assert plain.adaptivity is None and armed.adaptivity is not None

        trace = churn_trace(workload, lifetime=4.0, repeats=2)
        report_plain = plain.replay(list(trace))
        report_armed = armed.replay(list(trace))

        assert report_plain.decisions == report_armed.decisions
        assert report_plain.ticks == report_armed.ticks
        clean = lambda s: {k: v for k, v in s.items() if k not in _VOLATILE}  # noqa: E731
        assert clean(report_plain.summary) == clean(report_armed.summary)
        assert plain.topology_epoch == armed.topology_epoch
        assert plain.statistics_epoch == armed.statistics_epoch
        # the armed loop never saw drift, so it never migrated anything
        summary = armed.adaptivity.summary()
        assert summary["migrations_committed"] == 0
        assert summary["monitor"]["publications"] == 0

    def test_deployments_are_identical_mid_run(self):
        plain, workload = build_service(adaptivity=None)
        armed, _ = build_service(adaptivity=AdaptivityConfig())
        for query in workload.queries[:5]:
            plain.submit(query, time=1.0)
            armed.submit(query, time=1.0)
        for tick in range(2, 8):
            plain.tick(float(tick))
            armed.tick(float(tick))
        placements_plain = {
            d.query.name: sorted(d.placement.values())
            for d in plain.engine.state.deployments
        }
        placements_armed = {
            d.query.name: sorted(d.placement.values())
            for d in armed.engine.state.deployments
        }
        assert placements_plain == placements_armed
        assert plain.total_cost() == armed.total_cost()
        assert plain.rates.version == armed.rates.version == 0

    def test_default_service_exposes_no_adaptive_metrics(self):
        plain, _ = build_service(adaptivity=None)
        armed, _ = build_service(adaptivity=AdaptivityConfig())
        plain_names = set(plain.registry.names())
        armed_names = set(armed.registry.names())
        assert not {n for n in plain_names if n.startswith("adaptive_")}
        assert {n for n in armed_names if n.startswith("adaptive_")}
        # and the loop adds nothing else
        assert plain_names == {
            n for n in armed_names if not n.startswith("adaptive_")
        }
