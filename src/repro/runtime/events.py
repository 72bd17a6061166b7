"""Event queue primitives for the discrete-event simulator."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(order=True)
class Event:
    """A scheduled simulator event.

    Ordered by ``(time, seq)`` so ties resolve in scheduling order
    (deterministic replay).

    Attributes:
        time: Absolute simulation time in seconds.
        seq: Monotone tie-breaker assigned by the queue.
        action: Zero-argument callable run when the event fires.
    """

    time: float
    seq: int
    action: Callable[[], Any] = field(compare=False)


class EventQueue:
    """A heap-backed future event list."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def push(self, time: float, action: Callable[[], Any]) -> Event:
        """Schedule ``action`` at absolute ``time``; returns the event."""
        if time < 0:
            raise ValueError("event time must be non-negative")
        event = Event(time=time, seq=self._seq, action=action)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("event queue is empty")
        return heapq.heappop(self._heap)

    def peek_time(self) -> float | None:
        """Time of the earliest event, or None when empty."""
        return self._heap[0].time if self._heap else None

    def __bool__(self) -> bool:
        return bool(self._heap)
