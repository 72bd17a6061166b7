"""Retry policies, circuit breakers and the breaker board."""

import numpy as np
import pytest

from repro.errors import CircuitOpenError, CoordinatorUnreachable, PlanningError
from repro.resilience.policy import (
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
)


class TestRetryPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -0.1},
        {"multiplier": 0.5},
        {"jitter": 1.5},
        {"attempt_timeout": 0.0},
        {"deadline": -1.0},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestBackoff:
    def test_exponential_capped_no_jitter(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0
        )
        assert policy.backoff(1) == 0.0
        delays = [policy.backoff(attempt) for attempt in range(2, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_jitter_is_seeded(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.5)

        def delays(seed):
            rng = np.random.default_rng(seed)
            return [policy.backoff(attempt, rng) for attempt in range(2, 5)]

        a, b, c = delays(3), delays(3), delays(4)
        assert a == b
        assert a != c
        # jitter keeps every delay within the +-50% envelope
        for attempt, jittered in zip(range(2, 5), a):
            nominal = policy.backoff(attempt)
            assert 0.5 * nominal <= jittered <= 1.5 * nominal


class TestRetryRun:
    def test_succeeds_after_failures(self):
        calls = []
        retried = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise CoordinatorUnreachable("down")
            return "ok"

        policy = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.0)
        result, attempts, spent = policy.run(
            flaky, on_retry=lambda a, e, d: retried.append((a, d))
        )
        assert result == "ok"
        assert attempts == 3
        assert calls == [1, 2, 3]
        assert spent == pytest.approx(0.1 + 0.2)
        assert retried == [(2, pytest.approx(0.1)), (3, pytest.approx(0.2))]

    def test_exhaustion_raises_last_error(self):
        def always_down(attempt):
            raise CoordinatorUnreachable(f"attempt {attempt}")

        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        with pytest.raises(CoordinatorUnreachable, match="attempt 3"):
            policy.run(always_down)

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def boom(attempt):
            calls.append(attempt)
            raise RuntimeError("not a ReproError")

        with pytest.raises(RuntimeError):
            RetryPolicy(max_attempts=5).run(boom)
        assert calls == [1]

    def test_deadline_stops_the_loop(self):
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, multiplier=1.0, max_delay=1.0,
            jitter=0.0, deadline=2.5,
        )

        def always_down(attempt):
            raise PlanningError("nope")

        with pytest.raises(PlanningError):
            policy.run(always_down)
        # 1 try + 2 retries fit in the 2.5s deadline; the 4th would not.

    def test_jittered_run_uses_caller_rng(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.5)

        def fail_once(attempt):
            if attempt == 1:
                raise PlanningError("first")
            return attempt

        _, _, spent_a = policy.run(fail_once, rng=np.random.default_rng(9))
        _, _, spent_b = policy.run(fail_once, rng=np.random.default_rng(9))
        assert spent_a == spent_b


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_time=5.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 1
        assert not breaker.allow(1.0)

    def test_half_open_after_recovery_then_close(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=5.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(4.9)
        assert breaker.allow(5.0)  # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success(5.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(5.1)

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=5.0)
        breaker.record_failure(0.0)
        assert breaker.allow(5.0)
        breaker.record_failure(5.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 2
        assert not breaker.allow(9.9)
        assert breaker.allow(10.0)

    def test_half_open_probe_budget(self):
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=1.0, half_open_probes=2
        )
        breaker.record_failure(0.0)
        assert breaker.allow(2.0)
        assert breaker.allow(2.0)
        assert not breaker.allow(2.0)  # probe budget exhausted

    def test_check_raises_typed_error(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_time=10.0)
        breaker.record_failure(0.0)
        with pytest.raises(CircuitOpenError):
            breaker.check(1.0, target="node 5")

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_time=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)


class TestBreakerBoard:
    def test_independent_per_node(self):
        board = BreakerBoard(failure_threshold=1, recovery_time=5.0)
        board.breaker(3).record_failure(0.0)
        assert not board.allow(3, 1.0)
        assert board.allow(4, 1.0)
        assert board.open_nodes() == [3]

    def test_flapping_detection(self):
        board = BreakerBoard(failure_threshold=1, recovery_time=1.0)
        for t in (0.0, 2.0, 4.0):
            board.allow(6, t)  # move OPEN -> HALF_OPEN when recovered
            board.breaker(6).record_failure(t)
        assert board.breaker(6).opened_count == 3
        assert board.flapping(2) == [6]
        assert board.flapping(4) == []
        assert board.total_opens() == 3
