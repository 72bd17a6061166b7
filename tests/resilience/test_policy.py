"""Retry policies, circuit breakers and the breaker board."""

import numpy as np
import pytest

from repro.errors import CircuitOpenError, CoordinatorUnreachable, PlanningError
from repro.resilience import policy
from repro.resilience.policy import BreakerBoard, BreakerState, CircuitBreaker


def _retry(fn, rng=None, on_retry=lambda *args: None):
    return policy.retry(fn, rng or np.random.default_rng(0), on_retry, ())


def _nominal(attempt):
    return min(policy.MAX_DELAY, policy.BASE_DELAY * policy.MULTIPLIER ** (attempt - 2))


@pytest.fixture
def no_jitter(monkeypatch):
    monkeypatch.setattr(policy, "JITTER", 0.0)


class TestBackoff:
    def test_exponential_capped_no_jitter(self, monkeypatch, no_jitter):
        monkeypatch.setattr(policy, "MAX_ATTEMPTS", 5)
        monkeypatch.setattr(policy, "BASE_DELAY", 0.1)
        monkeypatch.setattr(policy, "MAX_DELAY", 0.3)
        rng = np.random.default_rng(0)
        assert policy.backoff(1, rng) == 0.0
        delays = [policy.backoff(attempt, rng) for attempt in range(2, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_jitter_is_seeded(self, monkeypatch):
        monkeypatch.setattr(policy, "BASE_DELAY", 0.1)
        monkeypatch.setattr(policy, "JITTER", 0.5)

        def delays(seed):
            rng = np.random.default_rng(seed)
            return [policy.backoff(attempt, rng) for attempt in range(2, 5)]

        a, b, c = delays(3), delays(3), delays(4)
        assert a == b
        assert a != c
        # jitter keeps every delay within the +-50% envelope
        for attempt, jittered in zip(range(2, 5), a):
            nominal = _nominal(attempt)
            assert 0.5 * nominal <= jittered <= 1.5 * nominal


class TestRetryRun:
    def test_succeeds_after_failures(self, monkeypatch, no_jitter):
        monkeypatch.setattr(policy, "MAX_ATTEMPTS", 4)
        monkeypatch.setattr(policy, "BASE_DELAY", 0.1)
        calls = []
        retried = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise CoordinatorUnreachable("down")
            return "ok"

        result, attempts, spent = _retry(flaky, on_retry=lambda a, e, d: retried.append((a, d)))
        assert result == "ok"
        assert attempts == 3
        assert calls == [1, 2, 3]
        assert spent == pytest.approx(0.1 + 0.2)
        assert retried == [(2, pytest.approx(0.1)), (3, pytest.approx(0.2))]

    def test_exhaustion_raises_last_error(self, no_jitter):
        def always_down(attempt):
            raise CoordinatorUnreachable(f"attempt {attempt}")

        with pytest.raises(CoordinatorUnreachable, match="attempt 3"):
            _retry(always_down)

    def test_non_retryable_propagates_immediately(self, monkeypatch):
        monkeypatch.setattr(policy, "MAX_ATTEMPTS", 5)
        calls = []

        def boom(attempt):
            calls.append(attempt)
            raise RuntimeError("not a ReproError")

        with pytest.raises(RuntimeError):
            _retry(boom)
        assert calls == [1]

    def test_jittered_run_uses_caller_rng(self, monkeypatch):
        monkeypatch.setattr(policy, "BASE_DELAY", 0.1)
        monkeypatch.setattr(policy, "JITTER", 0.5)

        def fail_once(attempt):
            if attempt == 1:
                raise PlanningError("first")
            return attempt

        _, _, spent_a = _retry(fail_once, rng=np.random.default_rng(9))
        _, _, spent_b = _retry(fail_once, rng=np.random.default_rng(9))
        assert spent_a == spent_b


@pytest.fixture
def quick_breakers(monkeypatch):
    """Breakers that trip on the first failure and recover after 5 ticks."""
    monkeypatch.setattr(policy, "FAILURE_THRESHOLD", 1)
    monkeypatch.setattr(policy, "RECOVERY_TIME", 5.0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker()  # trips on the third failure
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 1
        assert not breaker.allow(1.0)

    def test_half_open_after_recovery_then_close(self, quick_breakers):
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        assert not breaker.allow(4.9)
        assert breaker.allow(5.0)  # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(5.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(5.1)

    def test_half_open_failure_reopens(self, quick_breakers):
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        assert breaker.allow(5.0)
        breaker.record_failure(5.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 2
        assert not breaker.allow(9.9)
        assert breaker.allow(10.0)

    def test_half_open_probe_budget(self, monkeypatch, quick_breakers):
        monkeypatch.setattr(policy, "HALF_OPEN_PROBES", 2)
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        assert breaker.allow(6.0)
        assert breaker.allow(6.0)
        assert not breaker.allow(6.0)  # probe budget exhausted

    def test_check_raises_typed_error(self, quick_breakers):
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        with pytest.raises(CircuitOpenError):
            breaker.check(1.0, target="node 5")


class TestBreakerBoard:
    def test_independent_per_node(self, quick_breakers):
        board = BreakerBoard()
        board.breaker(3).record_failure(0.0)
        assert not board.allow(3, 1.0)
        assert board.allow(4, 1.0)
        assert board.open_nodes() == [3]

    def test_flapping_detection(self, quick_breakers):
        board = BreakerBoard()
        for t in (0.0, 6.0, 12.0):
            board.allow(6, t)  # move OPEN -> HALF_OPEN when recovered
            board.breaker(6).record_failure(t)
        assert board.breaker(6).opened_count == 3
        assert board.flapping(2) == [6]
        assert board.flapping(4) == []
        assert board.total_opens() == 3
