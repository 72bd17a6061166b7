"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is a *script* of hostile conditions -- every event
carries explicit (virtual) times, and :meth:`FaultPlan.generate` draws
from one seeded generator, so two runs of the same plan against the same
workload produce identical fault sequences.  That determinism is what
turns chaos testing into a reproducible benchmark (FuzzBench-style):
a regression is a diff, not a flake.

Faults act on the control plane only; simulated protocol messages are
always delivered.  Event vocabulary, with the hook each acts through:

* :class:`NodeCrash` -- a node's stream-processing daemon dies at
  ``time`` (packet forwarding through it keeps working, matching the
  failure model of :mod:`repro.runtime.failover`); optionally rejoins
  ``rejoin_after`` ticks later.  The service tick applies it
  (:meth:`FaultInjector.due_events`).
* :class:`CoordinatorOutage` -- a node is unreachable for planning
  RPCs during a window (process wedged, not dead):
  :meth:`FaultInjector.unreachable`.
* :class:`CoordinatorSlowdown` -- planning RPCs to the node take
  ``factor`` times longer during a window (GC pauses, overload):
  :meth:`FaultInjector.slowdown`.
* :class:`StaleStatistics` -- during a window the control plane must
  not observe rate-model updates (the statistics epoch freezes):
  :meth:`FaultInjector.statistics_frozen`.
* :class:`CrashPoint` -- the controller process dies at a journal
  boundary; the durability layer arms it, not the injector.

:data:`NULL_FAULTS` is the no-op default -- with it installed nothing
changes, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Union

from repro.errors import FaultInjectionError
from repro.serialization import jsonable
from repro.utils import SeedLike, as_generator


# ----------------------------------------------------------------------
# Event vocabulary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodeCrash:
    """A node's processing daemon dies (and optionally rejoins)."""

    time: float
    node: int
    rejoin_after: float | None = None


@dataclass(frozen=True)
class CoordinatorOutage:
    """A node refuses control-plane RPCs for a window."""

    time: float
    node: int
    duration: float


@dataclass(frozen=True)
class CoordinatorSlowdown:
    """Control-plane RPCs to a node slow down by ``factor`` for a window."""

    time: float
    node: int
    duration: float
    factor: float


@dataclass(frozen=True)
class StaleStatistics:
    """Statistics updates are invisible to the control plane for a window."""

    time: float
    duration: float


@dataclass(frozen=True)
class CrashPoint:
    """The controller process dies at an exact journal boundary.

    Interpreted by the durability layer, not the injector: arming a
    plan's crash points on a journal
    (:meth:`repro.durability.Durability.arm`) makes the first append
    that reaches ``after_lsn`` raise
    :class:`~repro.durability.journal.SimulatedCrash`.  ``torn_tail``
    kills the process *mid-write* (half a line, no newline -- the
    record is lost and recovery must repair the tail);  otherwise the
    record is fully durable before death.  ``mid_snapshot`` instead
    fires inside the next snapshot write at/after ``after_lsn``,
    leaving a truncated snapshot file under the final name.  ``time``
    only orders the event within the plan; firing is LSN-driven.
    """

    time: float
    after_lsn: int
    torn_tail: bool = False
    mid_snapshot: bool = False


FaultEvent = Union[
    NodeCrash,
    CoordinatorOutage,
    CoordinatorSlowdown,
    StaleStatistics,
    CrashPoint,
]

_EVENT_KINDS = {
    "node_crash": NodeCrash,
    "coordinator_outage": CoordinatorOutage,
    "coordinator_slowdown": CoordinatorSlowdown,
    "stale_statistics": StaleStatistics,
    "crash_point": CrashPoint,
}

#: Probability that a crash :meth:`FaultPlan.generate` draws rejoins.
REJOIN_FRACTION = 0.6
#: Coordinator outages, slowdowns and stale-statistics windows
#: :meth:`FaultPlan.generate` draws.
OUTAGES = 2
SLOWDOWNS = 2
STALE_WINDOWS = 1


def _validate_event(event: FaultEvent) -> None:
    if event.time < 0:
        raise FaultInjectionError(f"event time must be non-negative: {event!r}")
    duration = getattr(event, "duration", None)
    if duration is not None and duration <= 0:
        raise FaultInjectionError(f"event duration must be positive: {event!r}")
    if isinstance(event, NodeCrash):
        if event.rejoin_after is not None and event.rejoin_after <= 0:
            raise FaultInjectionError(f"rejoin_after must be positive: {event!r}")
    elif isinstance(event, CoordinatorSlowdown):
        if event.factor < 1.0:
            raise FaultInjectionError(f"slowdown factor must be >= 1: {event!r}")
    elif isinstance(event, CrashPoint):
        if event.after_lsn < 1:
            raise FaultInjectionError(f"after_lsn must be >= 1: {event!r}")
        if event.torn_tail and event.mid_snapshot:
            raise FaultInjectionError(
                f"torn_tail and mid_snapshot are exclusive: {event!r}"
            )


@dataclass
class FaultPlan:
    """An ordered, validated script of fault events.

    Attributes:
        events: The fault events, sorted by time on construction.
    """

    events: list[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for event in self.events:
            _validate_event(event)
        self.events = sorted(self.events, key=lambda e: (e.time, repr(e)))

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, cls: type) -> list[FaultEvent]:
        """The plan's events of one class, in time order."""
        return [e for e in self.events if isinstance(e, cls)]

    # ------------------------------------------------------------------
    # Serialization (plain dicts; repro.serialization adds the envelope)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-compatible)."""
        out: list[dict[str, Any]] = []
        kinds = {cls: name for name, cls in _EVENT_KINDS.items()}
        for event in self.events:
            out.append({"kind": kinds[type(event)], **event.__dict__})
        return {"events": out}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan serialized by :meth:`to_dict`.

        Other top-level keys are ignored: plans written when a plan
        carried an injector seed still load.
        """
        events: list[FaultEvent] = []
        for entry in doc.get("events", ()):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            event_cls = _EVENT_KINDS.get(kind)
            if event_cls is None:
                raise FaultInjectionError(f"unknown fault event kind {kind!r}")
            try:
                events.append(event_cls(**entry))
            except TypeError as exc:
                raise FaultInjectionError(f"bad {kind} event: {exc}") from exc
        return cls(events=events)

    # ------------------------------------------------------------------
    # Synthesis
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        nodes: Iterable[int],
        seed: SeedLike,
        duration: float,
        crashes: int = 3,
        protected: Iterable[int] = (),
        focus: Iterable[int] | None = None,
    ) -> "FaultPlan":
        """Synthesize a random (but seeded) plan over ``nodes``.

        Besides ``crashes`` it draws :data:`OUTAGES` coordinator
        outages, :data:`SLOWDOWNS` slowdowns and :data:`STALE_WINDOWS`
        stale-statistics windows.  Crash victims are drawn outside ``protected`` (pass source and
        sink nodes there to keep a workload plannable), rejoin with
        probability :data:`REJOIN_FRACTION`, and every window lands inside
        ``[1, duration)``.  ``focus`` biases coordinator outages and
        slowdowns onto the given nodes (e.g. the leaf coordinators a
        workload actually plans through) instead of uniform targets.
        """
        rng = as_generator(seed)
        nodes = sorted(nodes)
        if not nodes:
            raise FaultInjectionError("cannot generate a plan over zero nodes")
        protected = set(protected)
        victims = [n for n in nodes if n not in protected] or nodes
        targets = sorted(set(focus) & set(nodes)) if focus is not None else []
        targets = targets or nodes
        events: list[FaultEvent] = []

        def window(max_len: float) -> tuple[float, float]:
            start = float(rng.uniform(1.0, max(1.5, duration * 0.8)))
            length = float(rng.uniform(2.0, max(2.5, max_len)))
            return start, length

        for _ in range(crashes):
            start, _ = window(duration / 4)
            rejoin = None
            if rng.random() < REJOIN_FRACTION:
                rejoin = float(rng.uniform(3.0, max(4.0, duration / 3)))
            events.append(
                NodeCrash(time=start, node=int(rng.choice(victims)), rejoin_after=rejoin)
            )
        for _ in range(OUTAGES):
            start, length = window(duration / 4)
            events.append(
                CoordinatorOutage(time=start, node=int(rng.choice(targets)), duration=length)
            )
        for _ in range(SLOWDOWNS):
            start, length = window(duration / 4)
            events.append(
                CoordinatorSlowdown(
                    time=start,
                    node=int(rng.choice(targets)),
                    duration=length,
                    factor=float(rng.uniform(2.0, 12.0)),
                )
            )
        for _ in range(STALE_WINDOWS):
            start, length = window(duration / 3)
            events.append(StaleStatistics(time=start, duration=length))
        return cls(events=events)


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Applies a :class:`FaultPlan` to the runtime and the control plane.

    The service tick consumes its discrete events (crashes, rejoins);
    the resilience and adaptivity layers query its windows.  All state
    queries take the current virtual time explicitly -- the injector
    holds no clock.

    Attributes:
        plan: The interpreted plan.
        crashed: Nodes currently crashed (set by the service hook).
        applied: Log of applied discrete events (dicts with ``time``,
            ``kind`` and event fields) for reports and determinism tests.
        revision: Moves with every change of what :meth:`capture` writes.
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.crashed: set[int] = set()
        self.applied: list[dict[str, Any]] = []
        self._timeline: list[tuple[float, str, Any]] = []
        for event in plan.events:
            if isinstance(event, NodeCrash):
                self._timeline.append((event.time, "crash", event))
                if event.rejoin_after is not None:
                    self._timeline.append(
                        (event.time + event.rejoin_after, "rejoin", event.node)
                    )
        self._timeline.sort(key=lambda item: (item[0], item[1], repr(item[2])))
        self._cursor = 0
        self.revision = 0

    # ------------------------------------------------------------------
    # Discrete events (service tick hook)
    # ------------------------------------------------------------------
    def due_events(self, now: float) -> list[tuple[str, Any]]:
        """Consume and return the ``(kind, payload)`` events due by ``now``.

        ``kind`` is ``"crash"`` (payload: :class:`NodeCrash`) or
        ``"rejoin"`` (payload: node id).  Events are returned exactly
        once, in time order; the revision they move also covers the
        caller marking them in ``crashed`` before anything is captured.
        """
        due: list[tuple[str, Any]] = []
        while self._cursor < len(self._timeline) and self._timeline[self._cursor][0] <= now:
            _, kind, payload = self._timeline[self._cursor]
            due.append((kind, payload))
            self._cursor += 1
            self.revision += 1
        return due

    def note_applied(self, kind: str, time: float, **fields: Any) -> None:
        """Record one applied event in the injector's audit log."""
        self.applied.append({"kind": kind, "time": time, **fields})
        self.revision += 1

    # ------------------------------------------------------------------
    # Window state queries
    # ------------------------------------------------------------------
    def _in_window(self, event: FaultEvent, now: float) -> bool:
        return event.time <= now < event.time + getattr(event, "duration", 0.0)

    def unreachable(self, node: int, now: float) -> bool:
        """Whether control-plane RPCs to ``node`` fail right now."""
        if node in self.crashed:
            return True
        for event in self.plan.events:
            if isinstance(event, CoordinatorOutage) and event.node == node:
                if self._in_window(event, now):
                    return True
        return False

    def slowdown(self, node: int, now: float) -> float:
        """Multiplicative control-plane latency factor for ``node`` (>= 1)."""
        factor = 1.0
        for event in self.plan.events:
            if isinstance(event, CoordinatorSlowdown) and event.node == node:
                if self._in_window(event, now):
                    factor = max(factor, event.factor)
        return factor

    def statistics_frozen(self, now: float) -> bool:
        """Whether a stale-statistics window is active."""
        return any(
            self._in_window(event, now)
            for event in self.plan.events
            if isinstance(event, StaleStatistics)
        )

    def capture(self) -> dict[str, Any]:
        """The injector's section of a ``repro.state`` snapshot: where
        the plan's timeline stands and what it did."""
        return {
            "crashed": sorted(self.crashed),
            "cursor": self._cursor,
            "applied": jsonable(list(self.applied)),
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into an injector over the same plan.

        A section written when the injector also kept message counters
        and an RNG still restores: those keys are ignored.
        """
        self.crashed = set(doc["crashed"])
        self._cursor = doc["cursor"]
        self.applied = list(doc["applied"])

    def summary(self) -> dict[str, Any]:
        """Counters for reports."""
        return {
            "events_planned": len(self.plan),
            "events_applied": len(self.applied),
            "crashed_now": sorted(self.crashed),
        }


class NullFaultInjector:
    """The do-nothing injector: every hook is a no-op.

    With this default installed, planner output and service behavior are
    byte-identical to a build without the resilience layer -- the same
    contract an uninstalled tracer (:mod:`repro.obs.tracer`) keeps.
    """

    enabled = False
    crashed: frozenset[int] = frozenset()
    applied: tuple = ()
    revision = 0

    def due_events(self, now: float) -> list:
        return []

    def unreachable(self, node: int, now: float) -> bool:
        return False

    def slowdown(self, node: int, now: float) -> float:
        return 1.0

    def statistics_frozen(self, now: float) -> bool:
        return False

    def note_applied(self, kind: str, time: float, **fields: Any) -> None:
        pass

    def capture(self) -> None:
        """Nothing to keep: a snapshot's ``faults`` section is null."""
        return None

    def restore(self, doc: None) -> None:
        pass

    def summary(self) -> dict[str, Any]:
        return {"events_planned": 0, "events_applied": 0}


NULL_FAULTS = NullFaultInjector()
"""Module-level no-op injector; the default everywhere."""
