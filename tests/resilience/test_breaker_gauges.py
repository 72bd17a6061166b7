"""Per-coordinator breaker-state gauges on the resilience layer."""

import hypothesis.strategies as st
from hypothesis import example, given

from repro.obs.metrics import MetricRegistry
from repro.perf.profiler import profiled
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


class FullSyncControl(ResilientControl):
    """Every breaker's gauge on every sync, by node: what the touched-only
    sync must be indistinguishable from."""

    def sync_breaker_gauges(self) -> None:
        if self._registry is None:
            return
        for node, state in self.breakers.states().items():
            gauge = self._registry.gauge(
                f"resilience_breaker_state_{node}",
                f"Breaker state for coordinator {node} "
                "(0=closed, 1=half-open, 2=open).",
            )
            value = BREAKER_STATE_VALUES[state]
            if gauge.value != value:
                gauge.set(value)


_NODES = st.integers(0, 5)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("allow"), _NODES),
        st.tuples(st.just("success"), _NODES),
        st.tuples(st.just("failure"), _NODES),
        st.tuples(st.just("advance"), st.sampled_from([0.5, 3.0, 6.0])),
        st.tuples(st.just("sync"), st.none()),
        st.tuples(st.just("bind"), st.none()),
    ),
    max_size=40,
)

#: Breakers made before the bind, a trip, OPEN -> HALF_OPEN through
#: allow() and a failed probe, spelled out so every run covers them.
_SCRIPTED = [
    ("allow", 4), ("failure", 1), ("bind", None), ("failure", 4), ("failure", 4),
    ("advance", 6.0), ("allow", 4), ("sync", None), ("failure", 4), ("allow", 2),
    ("advance", 6.0), ("allow", 4), ("success", 4), ("sync", None),
]


class TestTouchedOnlySync:
    @given(steps=_STEPS)
    @example(steps=_SCRIPTED)
    def test_registry_equals_a_full_sync_twins(self, steps):
        controls = [make_control(), FullSyncControl(make_control().config)]
        registries = [MetricRegistry(), MetricRegistry()]
        cursors = [None, None]
        now = 0.0
        for kind, arg in steps:
            for control, registry in zip(controls, registries):
                if kind == "allow":
                    control.breakers.allow(arg, now)
                elif kind == "success":
                    control.breakers.record_success(arg, now)
                elif kind == "failure":
                    control._record_failure(arg, now)
                elif kind == "sync":
                    control.sync_breaker_gauges()
                elif kind == "bind":
                    control.bind_instruments(registry)
            if kind == "advance":
                now += arg
            touched, full = registries
            assert touched.changes_since(None) == full.changes_since(None)  # creation order
            assert touched.snapshot() == full.snapshot()
            assert touched.changes_since(cursors[0]) == full.changes_since(cursors[1])
            cursors = [touched.feed_cursor(), full.feed_cursor()]

    def test_a_sync_walks_only_the_breakers_touched(self):
        control = make_control()
        control.bind_instruments(MetricRegistry())
        for node in range(20):
            control._record_failure(node, now=1.0)
        with profiled() as prof:
            control._record_failure(7, now=2.0)
            control.sync_breaker_gauges()
        assert prof.ops["breaker_gauges_synced"] == 1
