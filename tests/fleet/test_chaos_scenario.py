"""Acceptance: the seeded fleet chaos scenario fires deterministic alerts.

The ISSUE's bar: with telemetry on, a seeded chaos drill must fire
breaker-trip and cache-hit-rate alerts at deterministic virtual ticks
and emit flight-recorder bundles whose causal trace ids resolve in the
causal tracer (``repro trace --causal``'s data source).
"""

from repro.fleet.scenario import chaos_telemetry_scenario
from repro.serialization import telemetry_to_json


class TestChaosTelemetryScenario:
    def test_scenario_fires_breaker_and_cache_alerts(self):
        result = chaos_telemetry_scenario(seed=7)
        envelope = result.telemetry.envelope()
        events = envelope["rules"]["events"]
        fired = {
            e["rule"]: e["time"] for e in events if e["to"] == "firing"
        }
        breaker = [r for r in fired if r.endswith(":breaker_tripped")]
        cache = [r for r in fired if r.endswith(":cache_hit_rate_low")]
        assert breaker, f"no breaker alert fired; events={fired}"
        assert cache, f"no cache-hit-rate alert fired; events={fired}"
        # the outage starts at tick 3; trips land inside/just after it
        assert all(3.0 <= fired[r] <= 12.0 for r in breaker)

    def test_firing_ticks_are_deterministic(self):
        def firing_schedule():
            result = chaos_telemetry_scenario(seed=7)
            return [
                (e["rule"], e["time"], e["to"])
                for e in result.telemetry.envelope()["rules"]["events"]
            ]

        assert firing_schedule() == firing_schedule()

    def test_envelope_bytes_are_deterministic(self):
        first = telemetry_to_json(chaos_telemetry_scenario(seed=7).telemetry)
        second = telemetry_to_json(chaos_telemetry_scenario(seed=7).telemetry)
        assert first == second

    def test_bundle_trace_ids_resolve_in_causal_tracer(self):
        result = chaos_telemetry_scenario(seed=7)
        flight = result.telemetry.envelope()["flight"]
        assert flight["bundles_total"] > 0
        bundle_ids = set()
        for bundle in flight["bundles"]:
            bundle_ids.update(bundle["trace_ids"])
        assert bundle_ids, "bundles carry no causal annotations"
        roots = {root.trace_id: root for root in result.causal.roots}
        assert bundle_ids <= set(roots)
        # and every id expands to a real span tree
        for trace_id in bundle_ids:
            assert all(s.trace_id == trace_id for s in roots[trace_id].walk())

    def test_breaker_open_bundles_emitted(self):
        result = chaos_telemetry_scenario(seed=7)
        flight = result.telemetry.envelope()["flight"]
        reasons = {b["reason"] for b in flight["bundles"]}
        assert any(r == "breaker_open" for r in reasons)
        assert any(r.startswith("alert:") for r in reasons)

    def test_scenario_shape(self):
        result = chaos_telemetry_scenario(seed=7, ticks=10)
        assert result.ticks == 10
        assert result.decisions
        assert len(result.fleet.shards) == 2
        assert result.plan.events  # the outage script is part of the result
        scopes = result.telemetry.scraper.scopes()
        assert scopes == ["fleet", "shard0", "shard1"]
