"""Retry policies and circuit breakers for control-plane calls.

:func:`retry` runs a call under capped exponential backoff with seeded
jitter; :data:`ATTEMPT_TIMEOUT` bounds one attempt.  Backoff delays are
*virtual* -- the control plane is tick-driven, so the policy computes
and accounts for the delay it would have slept rather than blocking the
process.

:class:`CircuitBreaker` is the classic three-state machine (CLOSED ->
OPEN after :data:`FAILURE_THRESHOLD` consecutive failures -> HALF_OPEN
after :data:`RECOVERY_TIME`, where up to :data:`HALF_OPEN_PROBES` trial
calls decide between closing and re-opening).  A :class:`BreakerBoard`
keys breakers by node so the service can gate each coordinator
independently and spot *flapping* nodes (breakers that re-opened often)
for quarantine.

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


#: Retry budget of a coordinator call: total tries including the first.
MAX_ATTEMPTS = 3
#: Backoff before the second attempt (seconds), its growth factor
#: between attempts, and the cap on any single backoff.
BASE_DELAY = 0.05
MULTIPLIER = 2.0
MAX_DELAY = 2.0
#: Uniform jitter fraction: each delay is scaled by
#: ``1 + U(-JITTER, +JITTER)`` drawn from the caller's seeded RNG.
JITTER = 0.1
#: Budget for one attempt; consumers compare their simulated call
#: latency against it.
ATTEMPT_TIMEOUT = 0.25


def backoff(attempt: int, rng: np.random.Generator) -> float:
    """Backoff delay before attempt number ``attempt`` (2-based), with
    seeded jitter; attempt 1 has none."""
    if attempt <= 1:
        return 0.0
    delay = min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** (attempt - 2))
    delay *= 1.0 + float(rng.uniform(-JITTER, JITTER))
    return max(0.0, delay)


def retry(
    fn: Callable[[int], T],
    rng: np.random.Generator,
    on_retry: Callable[[int, BaseException, float], None],
    give_up_on: tuple[type[BaseException], ...],
) -> tuple[T, int, float]:
    """Call ``fn(attempt)`` with capped exponential backoff.

    Returns ``(result, attempts_used, total_backoff)``.  A
    :class:`~repro.errors.ReproError` is retried unless it is one of
    ``give_up_on``; that and any other exception propagate
    immediately, and the last retryable error propagates once
    :data:`MAX_ATTEMPTS` run out.  ``on_retry(attempt, error, backoff)``
    fires before each re-try.
    """
    spent = 0.0
    last: BaseException | None = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        if attempt > 1:
            delay = backoff(attempt, rng)
            spent += delay
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


#: Consecutive failures that trip a breaker.
FAILURE_THRESHOLD = 3
#: Ticks a breaker stays OPEN before allowing half-open probe calls.
RECOVERY_TIME = 10.0
#: Trial calls allowed in HALF_OPEN; one success closes the breaker,
#: one failure re-opens it.
HALF_OPEN_PROBES = 1


@dataclass
class CircuitBreaker:
    """Per-target circuit breaker with half-open probing (trips after
    :data:`FAILURE_THRESHOLD` failures, probes after
    :data:`RECOVERY_TIME`)."""

    state: BreakerState = BreakerState.CLOSED
    consecutive_failures: int = 0
    opened_at: float | None = None
    opened_count: int = 0
    _probes_in_flight: int = field(default=0, repr=False)
    revision: int = field(default=0, repr=False, compare=False)  # moves with the above

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at time ``now``.

        Transitions OPEN -> HALF_OPEN when the recovery window elapsed;
        in HALF_OPEN only :data:`HALF_OPEN_PROBES` concurrent trials pass.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at < RECOVERY_TIME:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probes_in_flight = 0
        if self._probes_in_flight >= HALF_OPEN_PROBES:
            return False
        self._probes_in_flight += 1
        self.revision += 1
        return True

    def record_success(self, now: float) -> None:
        """A call succeeded: close the breaker, reset the failure run."""
        # Closed with no failure run, it has nothing to reset.
        self.revision += self.state is not BreakerState.CLOSED or self.consecutive_failures > 0
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._probes_in_flight = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        """A call failed: trip or re-open the breaker as appropriate."""
        self.consecutive_failures += 1
        self.revision += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= FAILURE_THRESHOLD
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
    """A board of per-node circuit breakers."""

    def __init__(self) -> None:
        self._breakers: dict[int, CircuitBreaker] = {}
        # Nodes whose breaker was reached since the last :meth:`touched`.
        self._touched: set[int] = set()

    def breaker(self, node: int) -> CircuitBreaker:
        """The (lazily created) breaker guarding one node: the one way to
        reach a breaker, so the node counts as touched."""
        self._touched.add(node)
        breaker = self._breakers.get(node)
        if breaker is None:
            breaker = self._breakers[node] = CircuitBreaker()
        return breaker

    def allow(self, node: int, now: float) -> bool:
        """Whether calls to ``node`` may proceed."""
        return self.breaker(node).allow(now)

    def record_success(self, node: int, now: float) -> None:
        self.breaker(node).record_success(now)

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

    @property
    def revision(self) -> tuple[int, int]:
        """Moves with every change of what :meth:`capture` writes."""
        return len(self._breakers), sum(b.revision for b in self._breakers.values())

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
