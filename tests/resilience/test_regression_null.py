"""With NULL faults the resilience layer must change nothing.

The contract: a default-constructed service (no resilience, no faults)
and a resilience-enabled service fed :data:`NULL_FAULTS` make identical
planning decisions and produce identical deployments -- the layer only
*observes* until something actually fails.
"""

import repro
from repro.resilience import NULL_FAULTS, ResilienceConfig
from repro.runtime import simulate_deployment
from repro.service import AdmissionController, StreamQueryService, churn_trace

#: summary keys the resilience layer itself adds
_VOLATILE = {"resilience", "faults"}


def build_service(resilience=None, seed=47):
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
        resilience=resilience,
    )
    return service, workload


class TestServiceParity:
    def test_replay_is_identical_with_and_without_the_layer(self):
        plain, workload = build_service(resilience=None)
        armed, _ = build_service(resilience=ResilienceConfig())
        assert armed.resilience is not None and armed.faults is NULL_FAULTS

        trace = churn_trace(workload, lifetime=4.0, repeats=2)
        report_plain = plain.replay(list(trace))
        report_armed = armed.replay(list(trace))

        assert report_plain.decisions == report_armed.decisions
        assert report_plain.ticks == report_armed.ticks
        clean = lambda s: {k: v for k, v in s.items() if k not in _VOLATILE}  # noqa: E731
        assert clean(report_plain.summary) == clean(report_armed.summary)
        assert plain.topology_epoch == armed.topology_epoch
        assert plain.statistics_epoch == armed.statistics_epoch

    def test_deployments_are_identical_mid_run(self):
        plain, workload = build_service(resilience=None)
        armed, _ = build_service(resilience=ResilienceConfig())
        for query in workload.queries[:5]:
            plain.submit(query, time=1.0)
            armed.submit(query, time=1.0)
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
        # the hierarchical rung never tags a deployment as degraded
        for d in armed.engine.state.deployments:
            assert "resilience_rung" not in d.stats
        assert armed.resilience.summary()["fallbacks"] == 0

    def test_default_service_exposes_no_resilience_metrics(self):
        plain, _ = build_service(resilience=None)
        armed, _ = build_service(resilience=ResilienceConfig())
        plain_names = set(plain.registry.names())
        armed_names = set(armed.registry.names())
        assert not {n for n in plain_names if n.startswith("resilience_")}
        assert {n for n in armed_names if n.startswith("resilience_")}
        # and the layer adds nothing else
        assert plain_names == {
            n for n in armed_names if not n.startswith("resilience_")
        }


class TestProtocolParity:
    def test_null_faults_timeline_is_byte_identical(self):
        """Deployments planned through the armed layer under NULL faults
        replay the same deployment protocol as plain ones."""
        plain, workload = build_service(resilience=None)
        armed, _ = build_service(resilience=ResilienceConfig())
        for query in workload.queries[:5]:
            plain.submit(query, time=1.0)
            armed.submit(query, time=1.0)
        by_name = lambda s: sorted(s.engine.state.deployments, key=lambda d: d.query.name)  # noqa: E731
        pairs = list(zip(by_name(plain), by_name(armed)))
        assert pairs
        for ours, theirs in pairs:
            assert simulate_deployment(plain.network, ours) == simulate_deployment(
                armed.network, theirs
            )
