"""The Telemetry pipeline: binding, determinism, and the null contract.

Two contracts under test:

* with ``telemetry=None`` (the default) the service behaves
  byte-identically to one that never heard of telemetry -- same
  decisions, same placements, same metrics;
* with telemetry on, the same seed + scenario produces an *identical*
  ``repro.telemetry`` envelope on every run (alerts fire at the same
  virtual ticks, no wall clock leaks into the series).
"""

import json

import pytest

import repro
from repro.obs.telemetry import Telemetry, TelemetryConfig, ensure_telemetry
from repro.serialization import telemetry_from_json, telemetry_to_json
from repro.service import AdmissionController, StreamQueryService, churn_trace

#: summary keys the optional layers themselves add
_VOLATILE = {
    "resilience",
    "faults",
    "adaptivity",
}


def build_service(telemetry=None, seed=47):
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
        telemetry=telemetry,
    )
    return service, workload


class TestEnsureTelemetry:
    def test_normalization(self):
        assert ensure_telemetry(None) is None
        pipeline = ensure_telemetry(TelemetryConfig(cadence=2.0))
        assert isinstance(pipeline, Telemetry)
        assert pipeline.scraper.cadence == 2.0
        assert ensure_telemetry(pipeline) is pipeline
        with pytest.raises(TypeError):
            ensure_telemetry(object())


class TestNullParity:
    def test_replay_is_identical_with_and_without_telemetry(self):
        plain, workload = build_service(telemetry=None)
        watched, _ = build_service(telemetry=TelemetryConfig())
        assert plain.telemetry is None and watched.telemetry is not None

        trace = churn_trace(workload, lifetime=4.0, repeats=2)
        report_plain = plain.replay(list(trace))
        report_watched = watched.replay(list(trace))

        assert report_plain.decisions == report_watched.decisions
        assert report_plain.ticks == report_watched.ticks
        clean = lambda s: {k: v for k, v in s.items() if k not in _VOLATILE}  # noqa: E731
        assert clean(report_plain.summary) == clean(report_watched.summary)

        placements = lambda svc: {  # noqa: E731
            d.query.name: sorted(d.placement.values())
            for d in svc.engine.state.deployments
        }
        assert placements(plain) == placements(watched)
        assert plain.total_cost() == watched.total_cost()
        # the pipeline only reads instruments; it adds none of its own
        assert set(plain.registry.names()) == set(watched.registry.names())

    def test_watched_service_produced_an_envelope_anyway(self):
        watched, workload = build_service(telemetry=TelemetryConfig())
        watched.replay(list(churn_trace(workload, lifetime=4.0, repeats=1)))
        envelope = watched.telemetry.envelope()
        assert envelope["kind"] == "repro.telemetry"
        assert envelope["scraper"]["scopes"] == ["service"]
        assert envelope["series"]
        assert envelope["alerts"]


class TestDeterminism:
    def _envelope(self, seed=47):
        service, workload = build_service(telemetry=TelemetryConfig(), seed=seed)
        service.replay(list(churn_trace(workload, lifetime=4.0, repeats=2)))
        return service.telemetry.envelope()

    def test_same_seed_same_envelope_bytes(self):
        first = telemetry_to_json(self._envelope())
        second = telemetry_to_json(self._envelope())
        assert first == second  # byte-identical, wall clock never leaks

    def test_wall_clock_series_never_scraped(self):
        envelope = self._envelope()
        assert not any(
            "service_planning_seconds" in name for name in envelope["series"]
        )

    def test_alert_events_at_identical_ticks(self):
        a, b = self._envelope(), self._envelope()
        events = lambda env: [  # noqa: E731
            (e["rule"], e["time"], e["to"]) for e in env["rules"]["events"]
        ]
        assert events(a) == events(b)

    def test_envelope_roundtrips_through_serialization(self):
        envelope = self._envelope()
        text = telemetry_to_json(envelope)
        assert telemetry_from_json(text) == json.loads(text)
        with pytest.raises(ValueError):
            telemetry_from_json(json.dumps({"kind": "repro.network"}))


class TestCausalHarvest:
    """Each observation records the installed causal tracer's new hops."""

    @staticmethod
    def hops(service):
        return [
            (e["scope"], e["hop_kind"])
            for e in service.telemetry.recorder.entries()
            if e["kind"] == "hop"
        ]

    def test_installed_tracer_hops_land_once_under_the_service_scope(self):
        service, _ = build_service(telemetry=TelemetryConfig())
        tracer = repro.CausalTracer()
        tracer.new_trace("deploy:q", node=0)
        service.tick(1.0)  # nothing installed: nothing harvested
        assert self.hops(service) == []
        with repro.causal_tracing(tracer):
            service.tick(2.0)
            tracer.record_hop("QuerySubmit", 0, 1, time=0.0)
            service.tick(3.0)
            service.tick(4.0)
        assert self.hops(service) == [
            ("service", "deploy:q"),
            ("service", "QuerySubmit"),
        ]
