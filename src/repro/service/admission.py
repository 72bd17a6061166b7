"""Admission control for the query lifecycle service.

The controller enforces a *concurrent-deployment budget*: at most
``budget`` queries run at once.  Submissions beyond the budget are not
failed -- they join a FIFO submission queue and deploy as capacity frees
up (backpressure), with an optional queue bound past which submissions
are gracefully rejected with a typed :class:`AdmissionDecision`.  A
per-tick admission limit additionally smooths deployment bursts so a
mass retirement does not trigger a planning stampede in one tick.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import AdmissionError
from repro.query.query import Query
from repro.serialization import _query_from_dict, _query_to_dict

if TYPE_CHECKING:  # import cycle: obs.metrics is registry-side plumbing
    from repro.obs.metrics import MetricRegistry

#: Queue-wait histogram buckets, in service ticks (not wall seconds --
#: waits are virtual time between enqueue and drain).
QUEUE_WAIT_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0,
)


class AdmissionStatus(enum.Enum):
    """Outcome class of one submission."""

    ADMITTED = "admitted"
    QUEUED = "queued"
    REJECTED = "rejected"


@dataclass(frozen=True)
class AdmissionDecision:
    """Typed outcome of submitting a query to the service.

    Attributes:
        query: Name of the submitted query.
        status: Admitted now, queued for a later tick, or rejected.
        reason: Human-readable explanation (rejections and queueing).
        queue_position: 1-based position in the submission queue when
            ``status`` is QUEUED.
    """

    query: str
    status: AdmissionStatus
    reason: str = ""
    queue_position: int | None = None

    @property
    def admitted(self) -> bool:
        """Whether the query was deployed immediately."""
        return self.status is AdmissionStatus.ADMITTED

    @property
    def rejected(self) -> bool:
        """Whether the submission was refused outright."""
        return self.status is AdmissionStatus.REJECTED


class AdmissionController:
    """Budgeted admission with a bounded FIFO submission queue.

    Args:
        budget: Maximum concurrently deployed queries (>= 1).
        max_queue: Submission-queue bound; ``None`` means unbounded
            backpressure, ``0`` disables queueing (reject at budget).
        max_per_tick: Cap on queue admissions per tick; ``None`` drains
            as much as capacity allows.
    """

    def __init__(
        self,
        budget: int = 16,
        max_queue: int | None = None,
        max_per_tick: int | None = None,
    ) -> None:
        if budget < 1:
            raise AdmissionError("budget must be >= 1")
        if max_queue is not None and max_queue < 0:
            raise AdmissionError("max_queue must be >= 0")
        if max_per_tick is not None and max_per_tick < 1:
            raise AdmissionError("max_per_tick must be >= 1")
        self.budget = budget
        self.max_queue = max_queue
        self.max_per_tick = max_per_tick
        self._queue: deque[Query] = deque()
        self._enqueued_at: dict[str, float] = {}
        self.admitted_total = 0
        self.queued_total = 0
        self.rejected_total = 0
        self._depth_gauge = None
        self._wait_hist = None

    # ------------------------------------------------------------------
    def bind_instruments(self, registry: "MetricRegistry") -> None:
        """Expose queue depth and queue-wait time as typed instruments.

        Declares an ``admission_queue_depth`` gauge and an
        ``admission_queue_wait_ticks`` histogram on ``registry`` and
        keeps both current from inside the controller -- so per-shard
        backpressure shows up in metric exports without callers polling
        the :attr:`queue_depth` property.  Wait time is virtual: the
        tick a query was enqueued (:meth:`request`'s ``time``) to the
        tick it drained.  Idempotent; the lifecycle service calls this
        with its registry at construction.
        """
        self._depth_gauge = registry.gauge(
            "admission_queue_depth",
            "Queries waiting in the admission controller's queue.",
        )
        self._wait_hist = registry.histogram(
            "admission_queue_wait_ticks",
            "Virtual ticks a query waited in the queue before admission.",
            buckets=QUEUE_WAIT_BUCKETS,
        )
        self._depth_gauge.set(float(len(self._queue)))

    def _record_depth(self) -> None:
        if self._depth_gauge is not None:
            self._depth_gauge.set(float(len(self._queue)))

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Queries currently waiting for capacity."""
        return len(self._queue)

    def queued_names(self) -> list[str]:
        """Names of waiting queries, front of the queue first."""
        return [q.name for q in self._queue]

    def is_queued(self, name: str) -> bool:
        """Whether a query of that name is waiting."""
        return any(q.name == name for q in self._queue)

    # ------------------------------------------------------------------
    def request(
        self, query: Query, live_count: int, time: float = 0.0
    ) -> AdmissionDecision:
        """Decide one submission given the current live-deployment count.

        Admission requires both free budget *and* an empty queue (FIFO
        fairness: nobody overtakes queued queries).  Callers deploy the
        query themselves when the decision is ADMITTED.  ``time`` is the
        service tick of the submission; queued queries remember it so
        :meth:`drain` can observe their queue-wait duration.
        """
        if live_count < self.budget and not self._queue:
            self.admitted_total += 1
            return AdmissionDecision(query=query.name, status=AdmissionStatus.ADMITTED)
        if self.max_queue is not None and len(self._queue) >= self.max_queue:
            self.rejected_total += 1
            return AdmissionDecision(
                query=query.name,
                status=AdmissionStatus.REJECTED,
                reason=(
                    f"budget {self.budget} in use and submission queue full "
                    f"({len(self._queue)}/{self.max_queue})"
                ),
            )
        self._queue.append(query)
        self._enqueued_at[query.name] = time
        self.queued_total += 1
        self._record_depth()
        return AdmissionDecision(
            query=query.name,
            status=AdmissionStatus.QUEUED,
            reason=f"{live_count}/{self.budget} deployments in use",
            queue_position=len(self._queue),
        )

    def reject(self, query: Query, reason: str) -> AdmissionDecision:
        """Record a validation rejection (bad query, duplicate name, ...)."""
        self.rejected_total += 1
        return AdmissionDecision(
            query=query.name, status=AdmissionStatus.REJECTED, reason=reason
        )

    def revoke(self, query: Query, reason: str) -> AdmissionDecision:
        """Reject a query :meth:`drain` already counted admitted (it can
        no longer be planned: an endpoint died while it waited)."""
        self.admitted_total -= 1
        return self.reject(query, reason)

    def drain(self, live_count: int, time: float = 0.0) -> list[Query]:
        """Pop the queries that may deploy this tick, FIFO order.

        Bounded by free budget and ``max_per_tick``.  The controller
        counts them admitted; the caller performs the deployments.
        ``time`` is the draining tick, used to observe queue-wait
        durations when instruments are bound.
        """
        free = max(0, self.budget - live_count)
        if self.max_per_tick is not None:
            free = min(free, self.max_per_tick)
        admitted: list[Query] = []
        while free > 0 and self._queue:
            query = self._queue.popleft()
            enqueued = self._enqueued_at.pop(query.name, None)
            if self._wait_hist is not None and enqueued is not None:
                self._wait_hist.observe(max(0.0, time - enqueued))
            admitted.append(query)
            self.admitted_total += 1
            free -= 1
        if admitted:
            self._record_depth()
        return admitted

    def withdraw(self, name: str) -> bool:
        """Remove a queued query by name (e.g. client cancellation)."""
        for i, query in enumerate(self._queue):
            if query.name == name:
                del self._queue[i]
                self._enqueued_at.pop(name, None)
                self._record_depth()
                return True
        return False

    # ------------------------------------------------------------------
    def capture(self) -> dict[str, Any]:
        """The controller's section of a ``repro.state`` snapshot."""
        return {
            "queue": [_query_to_dict(q) for q in self._queue],
            "enqueued_at": dict(self._enqueued_at),
            "admitted_total": self.admitted_total,
            "queued_total": self.queued_total,
            "rejected_total": self.rejected_total,
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into a pristine controller."""
        self._queue = deque(_query_from_dict(d) for d in doc["queue"])
        self._enqueued_at = dict(doc["enqueued_at"])
        self.admitted_total = doc["admitted_total"]
        self.queued_total = doc["queued_total"]
        self.rejected_total = doc["rejected_total"]
