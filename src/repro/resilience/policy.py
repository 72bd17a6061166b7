"""Retry policies and circuit breakers for control-plane calls.

:class:`RetryPolicy` implements capped exponential backoff with seeded
jitter, a per-attempt timeout and an overall deadline.  Backoff delays
are *virtual* -- the control plane is tick-driven, so the policy
computes and accounts for the delay it would have slept rather than
blocking the process.

:class:`CircuitBreaker` is the classic three-state machine (CLOSED ->
OPEN after ``failure_threshold`` consecutive failures -> HALF_OPEN after
``recovery_time``, where up to ``half_open_probes`` trial calls decide
between closing and re-opening).  A :class:`BreakerBoard` keys breakers
by node so the service can gate each coordinator independently and spot
*flapping* nodes (breakers that re-opened often) for quarantine.

Everything is deterministic under a fixed seed and a fixed call
sequence; nothing reads wall-clock time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from repro.errors import CircuitOpenError, ReproError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter, timeouts and a deadline.

    Attributes:
        max_attempts: Total tries including the first (>= 1).
        base_delay: Backoff before the second attempt (seconds).
        multiplier: Exponential growth factor between attempts.
        max_delay: Cap on any single backoff delay.
        jitter: Uniform jitter fraction in ``[0, 1]``; each delay is
            scaled by ``1 + U(-jitter, +jitter)`` drawn from the caller's
            seeded RNG.
        attempt_timeout: Budget for one attempt (``None`` = unlimited);
            consumers compare their simulated call latency against it.
        deadline: Budget for the whole retry loop including backoff
            (``None`` = unlimited).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    attempt_timeout: float | None = 0.25
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")

    def backoff(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Backoff delay before attempt number ``attempt`` (2-based).

        Attempt 1 has no backoff.  With an RNG, seeded jitter applies.
        """
        if attempt <= 1:
            return 0.0
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 2))
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + float(rng.uniform(-self.jitter, self.jitter))
        return max(0.0, delay)

    def run(
        self,
        fn: Callable[[int], T],
        rng: np.random.Generator | None = None,
        on_retry: Callable[[int, BaseException, float], None] | None = None,
        give_up_on: tuple[type[BaseException], ...] = (),
    ) -> tuple[T, int, float]:
        """Call ``fn(attempt)`` under this policy.

        Returns ``(result, attempts_used, total_backoff)``.  A
        :class:`~repro.errors.ReproError` is retried unless it is one of
        ``give_up_on``; that and any other exception propagate
        immediately, and the last retryable error propagates once
        attempts or the deadline run out.
        ``on_retry(attempt, error, backoff)`` fires before each re-try.
        """
        spent = 0.0
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            if attempt > 1:
                delay = self.backoff(attempt, rng)
                if self.deadline is not None and spent + delay > self.deadline:
                    break
                spent += delay
                if on_retry is not None:
                    assert last is not None
                    on_retry(attempt, last, delay)
            try:
                return fn(attempt), attempt, spent
            except ReproError as exc:
                if isinstance(exc, give_up_on):
                    raise
                last = exc
        assert last is not None
        raise last


class BreakerState(enum.Enum):
    """Circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class CircuitBreaker:
    """Per-target circuit breaker with half-open probing.

    Attributes:
        failure_threshold: Consecutive failures that trip the breaker.
        recovery_time: Ticks the breaker stays OPEN before allowing
            half-open probe calls.
        half_open_probes: Trial calls allowed in HALF_OPEN; one success
            closes the breaker, one failure re-opens it.
    """

    failure_threshold: int = 3
    recovery_time: float = 10.0
    half_open_probes: int = 1
    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at: float | None = None
    opened_count: int = 0
    _probes_in_flight: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.recovery_time <= 0:
            raise ValueError("recovery_time must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at time ``now``.

        Transitions OPEN -> HALF_OPEN when the recovery window elapsed;
        in HALF_OPEN only ``half_open_probes`` concurrent trials pass.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at < self.recovery_time:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probes_in_flight = 0
        if self._probes_in_flight >= self.half_open_probes:
            return False
        self._probes_in_flight += 1
        return True

    def record_success(self, now: float) -> None:
        """A call succeeded: close the breaker, reset the failure run."""
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._probes_in_flight = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        """A call failed: trip or re-open the breaker as appropriate."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._trip(now)

    def _trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = now
        self.opened_count += 1
        self._probes_in_flight = 0

    def check(self, now: float, target: str = "call") -> None:
        """Raise :class:`CircuitOpenError` unless :meth:`allow` passes."""
        if not self.allow(now):
            raise CircuitOpenError(
                f"circuit open for {target} "
                f"(failures={self.consecutive_failures}, opened {self.opened_count}x)"
            )


class BreakerBoard:
    """A board of per-node circuit breakers.

    Args:
        failure_threshold: Per-breaker trip threshold.
        recovery_time: Per-breaker OPEN duration.
    """

    def __init__(self, failure_threshold: int = 3, recovery_time: float = 10.0) -> None:
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self._breakers: dict[int, CircuitBreaker] = {}
        # Nodes whose breaker was reached since the last :meth:`touched`.
        self._touched: set[int] = set()

    def breaker(self, node: int) -> CircuitBreaker:
        """The (lazily created) breaker guarding one node: the one way to
        reach a breaker, so the node counts as touched."""
        self._touched.add(node)
        breaker = self._breakers.get(node)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                recovery_time=self.recovery_time,
            )
            self._breakers[node] = breaker
        return breaker

    def allow(self, node: int, now: float) -> bool:
        """Whether calls to ``node`` may proceed."""
        return self.breaker(node).allow(now)

    def record_success(self, node: int, now: float) -> None:
        self.breaker(node).record_success(now)

    def record_failure(self, node: int, now: float) -> None:
        self.breaker(node).record_failure(now)

    def touched(self) -> dict[int, BreakerState]:
        """:meth:`states` of the breakers reached since the previous call
        -- the only ones whose state may have moved -- by node."""
        states = {node: self._breakers[node].state for node in sorted(self._touched)}
        self._touched.clear()
        return states

    def states(self) -> dict[int, BreakerState]:
        """Current state of every instantiated breaker, keyed by node."""
        return {
            node: breaker.state
            for node, breaker in sorted(self._breakers.items())
        }

    def open_nodes(self) -> list[int]:
        """Nodes whose breaker is currently OPEN."""
        return sorted(
            node
            for node, breaker in self._breakers.items()
            if breaker.state is BreakerState.OPEN
        )

    def flapping(self, min_opens: int) -> list[int]:
        """Nodes whose breaker has opened at least ``min_opens`` times."""
        return sorted(
            node
            for node, breaker in self._breakers.items()
            if breaker.opened_count >= min_opens
        )

    def total_opens(self) -> int:
        """Breaker-open transitions across the board."""
        return sum(b.opened_count for b in self._breakers.values())

    def capture(self) -> list:
        """``[node, breaker fields]`` per instantiated breaker, by node."""
        return [
            [
                node,
                {
                    "state": breaker.state.value,
                    "consecutive_failures": breaker.consecutive_failures,
                    "opened_at": breaker.opened_at,
                    "opened_count": breaker.opened_count,
                    "probes_in_flight": breaker._probes_in_flight,
                },
            ]
            for node, breaker in sorted(self._breakers.items())
        ]

    def restore(self, doc: list) -> None:
        """Inverse of :meth:`capture`: exactly the captured breakers."""
        self._breakers, self._touched = {}, set()
        for node, fields in doc:
            breaker = self.breaker(node)
            breaker.state = BreakerState(fields["state"])
            breaker.consecutive_failures = fields["consecutive_failures"]
            breaker.opened_at = fields["opened_at"]
            breaker.opened_count = fields["opened_count"]
            breaker._probes_in_flight = fields["probes_in_flight"]
