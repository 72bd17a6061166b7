"""Per-coordinator breaker-state gauges on the resilience layer."""

from repro.obs.metrics import MetricRegistry
from repro.resilience.degradation import (
    BREAKER_STATE_VALUES,
    ResilienceConfig,
    ResilientControl,
)
from repro.resilience.policy import BreakerState


def make_control():
    return ResilientControl(ResilienceConfig(failure_threshold=2, recovery_time=5.0))


class TestBindInstruments:
    def test_declares_resilience_instruments(self):
        control = make_control()
        registry = MetricRegistry()
        control.bind_instruments(registry)
        names = set(registry.names())
        assert "resilience_retries_total" in names
        assert "resilience_breaker_opens_total" in names
        assert "resilience_parked_queries" in names
        assert "resilience_quarantined_nodes" in names

    def test_idempotent_rebind_reuses_instruments(self):
        control = make_control()
        registry = MetricRegistry()
        control.bind_instruments(registry)
        counter = registry.get("resilience_retries_total")
        control.bind_instruments(registry)
        assert registry.get("resilience_retries_total") is counter


class TestBreakerStateGauges:
    def test_gauge_tracks_the_breaker_lifecycle(self):
        control = make_control()
        registry = MetricRegistry()
        control.bind_instruments(registry)

        # trip coordinator 5: threshold=2 consecutive failures
        control._record_failure(5, now=1.0)
        gauge = registry.get("resilience_breaker_state_5")
        assert gauge is not None  # created lazily on first sync
        assert gauge.value == BREAKER_STATE_VALUES[BreakerState.CLOSED]
        control._record_failure(5, now=2.0)
        assert gauge.value == BREAKER_STATE_VALUES[BreakerState.OPEN]

        # recovery_time elapses -> allow() moves it to half-open
        assert control.breakers.allow(5, now=8.0)
        control.sync_breaker_gauges()
        assert gauge.value == BREAKER_STATE_VALUES[BreakerState.HALF_OPEN]

        control.breakers.record_success(5, now=8.5)
        control.sync_breaker_gauges()
        assert gauge.value == BREAKER_STATE_VALUES[BreakerState.CLOSED]

    def test_sync_without_registry_is_a_noop(self):
        control = make_control()
        control._record_failure(3, now=1.0)  # must not raise unbound
        assert control._registry is None

    def test_states_exposes_every_seen_coordinator(self):
        control = make_control()
        control.breakers.breaker(2)
        control._record_failure(7, now=1.0)
        control._record_failure(7, now=2.0)
        states = control.breakers.states()
        assert states[2] is BreakerState.CLOSED
        assert states[7] is BreakerState.OPEN
        assert list(states) == [2, 7]  # sorted for determinism

    def test_gauges_feed_the_exposition(self):
        control = make_control()
        registry = MetricRegistry()
        control.bind_instruments(registry)
        control._record_failure(4, now=1.0)
        control._record_failure(4, now=2.0)
        text = registry.exposition()
        assert "resilience_breaker_state_4 2" in text
