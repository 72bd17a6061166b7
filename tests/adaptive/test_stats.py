"""StatsMonitor: EWMA convergence, drift hysteresis, publication."""

import pytest

from repro.adaptive.stats import EwmaEstimator, StatsMonitor
from repro.core.cost import RateModel
from repro.query.stream import StreamSpec


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
        assert monitor.drifted() == []
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
