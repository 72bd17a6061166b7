"""StatsMonitor: EWMA convergence, drift hysteresis, publication."""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.adaptive.stats import EwmaEstimator, StatsMonitor
from repro.core.cost import RateModel
from repro.query.stream import StreamSpec

from tests.adaptive.reference_stats import EagerStatsMonitor


def make_rates():
    return RateModel(
        {
            "A": StreamSpec("A", 0, rate=100.0),
            "B": StreamSpec("B", 1, rate=40.0),
        }
    )


class TestEwmaEstimator:
    def test_converges_to_a_constant_signal(self):
        est = EwmaEstimator(alpha=0.3, initial=100.0)
        for _ in range(60):
            est.update(400.0)
        assert est.value == pytest.approx(400.0, rel=1e-3)

    def test_first_sample_seeds_an_empty_estimator(self):
        est = EwmaEstimator(alpha=0.5)
        assert est.value is None
        est.update(7.0)
        assert est.value == 7.0

    def test_higher_alpha_reacts_faster(self):
        slow, fast = EwmaEstimator(0.1, 100.0), EwmaEstimator(0.6, 100.0)
        for _ in range(5):
            slow.update(200.0)
            fast.update(200.0)
        assert fast.value > slow.value

    def test_alpha_is_validated(self):
        with pytest.raises(ValueError):
            EwmaEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaEstimator(alpha=1.5)


class TestDriftDetection:
    def test_no_observations_no_drift(self):
        monitor = StatsMonitor(make_rates())
        assert monitor.summary()["drifting_now"] == []
        assert monitor.maybe_publish(1.0) == []

    def test_single_tick_spike_does_not_publish(self):
        """Hysteresis: one breaching check must not fire a publication."""
        monitor = StatsMonitor(
            make_rates(), alpha=1.0, hysteresis_ticks=2,
            publish_cooldown=0.0,
        )
        monitor.observe_rate("A", 500.0)  # alpha=1: estimate jumps at once
        assert monitor.maybe_publish(1.0) == []  # first breach: streak 1 < 2
        monitor.observe_rate("A", 100.0)  # spike gone
        assert monitor.maybe_publish(2.0) == []  # streak reset
        assert monitor.rates.version == 0

    def test_sustained_drift_publishes_after_hysteresis(self):
        rates = make_rates()
        monitor = StatsMonitor(
            rates, alpha=1.0, hysteresis_ticks=2,
            publish_cooldown=0.0,
        )
        monitor.observe_rate("A", 500.0)
        assert monitor.maybe_publish(1.0) == []
        monitor.observe_rate("A", 500.0)
        drifts = monitor.maybe_publish(2.0)
        assert [d.stream for d in drifts] == ["A"]
        assert rates.version == 1
        assert rates.stream("A").rate == pytest.approx(500.0)
        # the un-drifted stream is untouched
        assert rates.stream("B").rate == pytest.approx(40.0)

    def test_no_flapping_after_publication(self):
        """Once published, the estimate IS the published rate -- the same
        observations must not re-publish forever."""
        monitor = StatsMonitor(
            make_rates(), alpha=1.0, hysteresis_ticks=1,
            publish_cooldown=0.0,
        )
        monitor.observe_rate("A", 500.0)
        assert monitor.maybe_publish(1.0) != []
        for tick in range(2, 12):
            monitor.observe_rate("A", 500.0)
            assert monitor.maybe_publish(float(tick)) == []
        assert monitor.rates.version == 1

    def test_publish_cooldown_rate_limits(self):
        monitor = StatsMonitor(
            make_rates(), alpha=1.0, hysteresis_ticks=1,
            publish_cooldown=5.0,
        )
        monitor.observe_rate("A", 300.0)
        assert monitor.maybe_publish(1.0) != []
        monitor.observe_rate("A", 900.0)  # drifts again immediately
        assert monitor.maybe_publish(2.0) == []  # inside the cooldown
        assert monitor.maybe_publish(6.0) != []  # past it

    def test_observation_validation(self):
        monitor = StatsMonitor(make_rates())
        with pytest.raises(KeyError):
            monitor.observe_rate("NOPE", 1.0)
        with pytest.raises(ValueError):
            monitor.observe_rate("A", -1.0)

    def test_summary_reports_counters(self):
        monitor = StatsMonitor(make_rates(), alpha=1.0, hysteresis_ticks=1,
                               publish_cooldown=0.0)
        monitor.observe_rate("A", 500.0)
        monitor.maybe_publish(1.0)
        summary = monitor.summary()
        assert summary["streams_monitored"] == 2
        assert summary["publications"] == 1


# ----------------------------------------------------------------------
# The incremental drift check against the eager one
# ----------------------------------------------------------------------
#: One step: ``("sample", stream, rate)``, ``("check", ticks)`` (advance
#: the clock, then run one drift check) or ``("restore",)`` (capture and
#: restore into a fresh monitor, as crash recovery does).
_STEPS = st.one_of(
    st.tuples(
        st.just("sample"),
        st.sampled_from(["A", "B"]),
        # Around the threshold of either stream's catalog rate, and far past it.
        st.sampled_from([100.0, 115.0, 121.0, 79.0, 40.0, 47.0, 49.0, 31.0, 500.0, 0.0]),
    ),
    st.tuples(st.just("check"), st.sampled_from([0.0, 1.0, 3.0])),
    st.tuples(st.just("restore")),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    alpha=st.sampled_from([0.3, 1.0]),
    hysteresis=st.integers(1, 3),
    cooldown=st.sampled_from([0.0, 2.0, 5.0]),
    steps=st.lists(_STEPS, max_size=40),
)
def test_the_drift_check_is_the_eager_check(alpha, hysteresis, cooldown, steps):
    """Every check publishes what a check that re-derives every stream
    publishes, and leaves the same streaks, counts, revision and rates."""

    def build(cls):
        return cls(make_rates(), alpha=alpha, hysteresis_ticks=hysteresis, publish_cooldown=cooldown)

    monitor, eager = build(StatsMonitor), build(EagerStatsMonitor)
    now = 0.0
    for step in steps:
        if step[0] == "sample":
            assert monitor.observe_rate(*step[1:]) == eager.observe_rate(*step[1:])
        elif step[0] == "check":
            now += step[1]
            assert repr(monitor.maybe_publish(now)) == repr(eager.maybe_publish(now))
        else:
            doc = json.loads(json.dumps(monitor.capture()))
            monitor, eager = build(StatsMonitor), build(EagerStatsMonitor)
            monitor.restore(doc)
            eager.restore(json.loads(json.dumps(doc)))
        assert json.dumps(monitor.capture()) == json.dumps(eager.capture())
        assert monitor.revision == eager.revision
        assert monitor.rates.streams == eager.rates.streams
        assert monitor.summary()["drifting_now"] == sorted(d.stream for d in eager.drifted())
