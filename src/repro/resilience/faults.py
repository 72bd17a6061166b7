"""Deterministic, seeded fault injection.

A :class:`FaultPlan` is a *script* of hostile conditions -- every event
carries explicit (virtual) times, and every probabilistic draw comes
from one seeded generator, so two runs of the same plan against the same
workload produce identical fault sequences.  That determinism is what
turns chaos testing into a reproducible benchmark (FuzzBench-style):
a regression is a diff, not a flake.

Event vocabulary:

* :class:`NodeCrash` -- a node's stream-processing daemon dies at
  ``time`` (packet forwarding through it keeps working, matching the
  failure model of :mod:`repro.runtime.failover`); optionally rejoins
  ``rejoin_after`` ticks later.
* :class:`CoordinatorOutage` -- a node is unreachable for control-plane
  RPCs during a window (process wedged, not dead).
* :class:`CoordinatorSlowdown` -- control-plane calls to the node take
  ``factor`` times longer during a window (GC pauses, overload).
* :class:`MessageStorm` -- during a window, simulator messages are
  dropped / delayed / duplicated with the given probabilities.
* :class:`StaleStatistics` -- during a window the control plane must
  not observe rate-model updates (the statistics epoch freezes).
* :class:`Partition` -- the node set splits into groups; control-plane
  reachability and simulator messages across groups fail.

The :class:`FaultInjector` interprets a plan.  It has two hook points:
:meth:`FaultInjector.install` registers a send middleware on a
:class:`~repro.runtime.simulator.Simulator`, and the lifecycle service
calls :meth:`FaultInjector.due_events` from its clock tick.
:data:`NULL_FAULTS` is the no-op default -- with it installed nothing
changes, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Union

import numpy as np

from repro.durability.state import _jsonable, capture_rng, restore_rng
from repro.errors import FaultInjectionError
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
class MessageStorm:
    """A message drop/delay/duplication window on the simulator."""

    time: float
    duration: float
    drop: float = 0.0
    delay: float = 0.0
    delay_spread: float = 0.0
    duplicate: float = 0.0


@dataclass(frozen=True)
class StaleStatistics:
    """Statistics updates are invisible to the control plane for a window."""

    time: float
    duration: float


@dataclass(frozen=True)
class Partition:
    """The cluster splits into isolated groups for a window."""

    time: float
    duration: float
    groups: tuple[tuple[int, ...], ...]


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
    MessageStorm,
    StaleStatistics,
    Partition,
    CrashPoint,
]

_EVENT_KINDS = {
    "node_crash": NodeCrash,
    "coordinator_outage": CoordinatorOutage,
    "coordinator_slowdown": CoordinatorSlowdown,
    "message_storm": MessageStorm,
    "stale_statistics": StaleStatistics,
    "partition": Partition,
    "crash_point": CrashPoint,
}


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
    elif isinstance(event, MessageStorm):
        for name in ("drop", "duplicate"):
            p = getattr(event, name)
            if not 0.0 <= p <= 1.0:
                raise FaultInjectionError(f"{name} must be a probability: {event!r}")
        if event.delay < 0 or event.delay_spread < 0:
            raise FaultInjectionError(f"delays must be non-negative: {event!r}")
    elif isinstance(event, CrashPoint):
        if event.after_lsn < 1:
            raise FaultInjectionError(f"after_lsn must be >= 1: {event!r}")
        if event.torn_tail and event.mid_snapshot:
            raise FaultInjectionError(
                f"torn_tail and mid_snapshot are exclusive: {event!r}"
            )
    elif isinstance(event, Partition):
        seen: set[int] = set()
        for group in event.groups:
            overlap = seen & set(group)
            if overlap:
                raise FaultInjectionError(
                    f"partition groups must be disjoint; {sorted(overlap)} repeat"
                )
            seen |= set(group)
        if len(event.groups) < 2:
            raise FaultInjectionError("a partition needs at least two groups")


@dataclass
class FaultPlan:
    """An ordered, validated script of fault events.

    Attributes:
        events: The fault events, sorted by time on construction.
        seed: Seed for every probabilistic draw the injector makes
            (message drops, generated jitter); same seed + same call
            sequence = same faults.
    """

    events: list[FaultEvent] = field(default_factory=list)
    seed: int = 0

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
            doc = {"kind": kinds[type(event)]}
            for key, value in event.__dict__.items():
                if isinstance(event, Partition) and key == "groups":
                    value = [list(g) for g in value]
                doc[key] = value
            out.append(doc)
        return {"seed": self.seed, "events": out}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan serialized by :meth:`to_dict`."""
        events: list[FaultEvent] = []
        for entry in doc.get("events", ()):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            event_cls = _EVENT_KINDS.get(kind)
            if event_cls is None:
                raise FaultInjectionError(f"unknown fault event kind {kind!r}")
            if event_cls is Partition:
                entry["groups"] = tuple(tuple(g) for g in entry["groups"])
            try:
                events.append(event_cls(**entry))
            except TypeError as exc:
                raise FaultInjectionError(f"bad {kind} event: {exc}") from exc
        return cls(events=events, seed=int(doc.get("seed", 0)))

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
        rejoin_fraction: float = 0.6,
        outages: int = 2,
        slowdowns: int = 2,
        storms: int = 1,
        stale_windows: int = 1,
        partitions: int = 0,
        protected: Iterable[int] = (),
        focus: Iterable[int] | None = None,
    ) -> "FaultPlan":
        """Synthesize a random (but seeded) plan over ``nodes``.

        Crash victims are drawn outside ``protected`` (pass source and
        sink nodes there to keep a workload plannable), rejoin with
        probability ``rejoin_fraction``, and every window lands inside
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
            if rng.random() < rejoin_fraction:
                rejoin = float(rng.uniform(3.0, max(4.0, duration / 3)))
            events.append(
                NodeCrash(time=start, node=int(rng.choice(victims)), rejoin_after=rejoin)
            )
        for _ in range(outages):
            start, length = window(duration / 4)
            events.append(
                CoordinatorOutage(time=start, node=int(rng.choice(targets)), duration=length)
            )
        for _ in range(slowdowns):
            start, length = window(duration / 4)
            events.append(
                CoordinatorSlowdown(
                    time=start,
                    node=int(rng.choice(targets)),
                    duration=length,
                    factor=float(rng.uniform(2.0, 12.0)),
                )
            )
        for _ in range(storms):
            start, length = window(duration / 3)
            events.append(
                MessageStorm(
                    time=start,
                    duration=length,
                    drop=float(rng.uniform(0.05, 0.3)),
                    delay=float(rng.uniform(0.0, 0.02)),
                    delay_spread=float(rng.uniform(0.0, 0.01)),
                    duplicate=float(rng.uniform(0.0, 0.15)),
                )
            )
        for _ in range(stale_windows):
            start, length = window(duration / 3)
            events.append(StaleStatistics(time=start, duration=length))
        for _ in range(partitions):
            start, length = window(duration / 4)
            shuffled = list(nodes)
            rng.shuffle(shuffled)
            cut = max(1, len(shuffled) // 3)
            events.append(
                Partition(
                    time=start,
                    duration=length,
                    groups=(tuple(sorted(shuffled[:cut])), tuple(sorted(shuffled[cut:]))),
                )
            )
        plan_seed = int(rng.integers(0, 2**31 - 1))
        return cls(events=events, seed=plan_seed)


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Applies a :class:`FaultPlan` to the runtime and the control plane.

    One injector instance can serve both hook points at once: the
    simulator middleware (message faults, partitions) and the service
    tick hook (crashes, rejoins, windows).  All state queries take the
    current virtual time explicitly -- the injector holds no clock.

    Attributes:
        plan: The interpreted plan.
        crashed: Nodes currently crashed (set by the service hook).
        applied: Log of applied discrete events (dicts with ``time``,
            ``kind`` and event fields) for reports and determinism tests.
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
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
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.messages_duplicated = 0

    # ------------------------------------------------------------------
    # Discrete events (service tick hook)
    # ------------------------------------------------------------------
    def due_events(self, now: float) -> list[tuple[str, Any]]:
        """Consume and return the ``(kind, payload)`` events due by ``now``.

        ``kind`` is ``"crash"`` (payload: :class:`NodeCrash`) or
        ``"rejoin"`` (payload: node id).  Events are returned exactly
        once, in time order.
        """
        due: list[tuple[str, Any]] = []
        while self._cursor < len(self._timeline) and self._timeline[self._cursor][0] <= now:
            _, kind, payload = self._timeline[self._cursor]
            due.append((kind, payload))
            self._cursor += 1
        return due

    def note_applied(self, kind: str, time: float, **fields: Any) -> None:
        """Record one applied event in the injector's audit log."""
        self.applied.append({"kind": kind, "time": time, **fields})

    # ------------------------------------------------------------------
    # Window state queries
    # ------------------------------------------------------------------
    def _in_window(self, event: FaultEvent, now: float) -> bool:
        return event.time <= now < event.time + getattr(event, "duration", 0.0)

    def unreachable(self, node: int, now: float, observer: int | None = None) -> bool:
        """Whether control-plane RPCs to ``node`` fail right now."""
        if node in self.crashed:
            return True
        for event in self.plan.events:
            if isinstance(event, CoordinatorOutage) and event.node == node:
                if self._in_window(event, now):
                    return True
        if observer is not None and self.partitioned(observer, node, now):
            return True
        return False

    def partitioned(self, a: int, b: int, now: float) -> bool:
        """Whether a partition currently separates nodes ``a`` and ``b``."""
        if a == b:
            return False
        for event in self.plan.events:
            if isinstance(event, Partition) and self._in_window(event, now):
                group_of: dict[int, int] = {}
                for i, group in enumerate(event.groups):
                    for n in group:
                        group_of[n] = i
                ga, gb = group_of.get(a), group_of.get(b)
                # Nodes absent from every group stay fully connected.
                if ga is not None and gb is not None and ga != gb:
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

    # ------------------------------------------------------------------
    # Simulator middleware
    # ------------------------------------------------------------------
    def message_action(
        self, src: int, dst: int, message: Any, now: float
    ) -> tuple | None:
        """Middleware decision for one simulator message.

        Returns ``None`` (deliver normally), ``("drop", reason)``,
        ``("delay", extra_seconds)`` or ``("duplicate", extra_delay)``.
        Partition windows drop cross-group messages outright.  The drop
        reason (``"partition"`` / ``"storm"``) is extra trailing context
        for the causal tracer; the simulator dispatches on ``action[0]``
        only, so pre-reason consumers are unaffected.
        """
        if self.partitioned(src, dst, now):
            self.messages_dropped += 1
            return ("drop", "partition")
        for event in self.plan.events:
            if not isinstance(event, MessageStorm) or not self._in_window(event, now):
                continue
            draw = float(self.rng.random())
            if draw < event.drop:
                self.messages_dropped += 1
                return ("drop", "storm")
            if draw < event.drop + event.duplicate:
                self.messages_duplicated += 1
                return ("duplicate", float(self.rng.uniform(0.0, event.delay_spread)))
            if event.delay > 0.0 or event.delay_spread > 0.0:
                extra = event.delay + float(self.rng.uniform(0.0, event.delay_spread))
                if extra > 0.0:
                    self.messages_delayed += 1
                    return ("delay", extra)
            return None
        return None

    def install(self, simulator) -> None:
        """Register this injector as a send middleware on a simulator."""
        simulator.add_send_middleware(self.message_action)

    def capture(self) -> dict[str, Any]:
        """The injector's section of a ``repro.state`` snapshot: where
        the plan's timeline stands, what it did, and its RNG."""
        return {
            "crashed": sorted(self.crashed),
            "cursor": self._cursor,
            "applied": _jsonable(list(self.applied)),
            "messages_dropped": self.messages_dropped,
            "messages_delayed": self.messages_delayed,
            "messages_duplicated": self.messages_duplicated,
            "rng": capture_rng(self.rng),
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into an injector over the same plan."""
        self.crashed = set(doc["crashed"])
        self._cursor = doc["cursor"]
        self.applied = list(doc["applied"])
        self.messages_dropped = doc["messages_dropped"]
        self.messages_delayed = doc["messages_delayed"]
        self.messages_duplicated = doc["messages_duplicated"]
        restore_rng(self.rng, doc["rng"])

    def summary(self) -> dict[str, Any]:
        """Counters for reports."""
        return {
            "events_planned": len(self.plan),
            "events_applied": len(self.applied),
            "messages_dropped": self.messages_dropped,
            "messages_delayed": self.messages_delayed,
            "messages_duplicated": self.messages_duplicated,
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

    def due_events(self, now: float) -> list:
        return []

    def unreachable(self, node: int, now: float, observer: int | None = None) -> bool:
        return False

    def partitioned(self, a: int, b: int, now: float) -> bool:
        return False

    def slowdown(self, node: int, now: float) -> float:
        return 1.0

    def statistics_frozen(self, now: float) -> bool:
        return False

    def message_action(self, src: int, dst: int, message: Any, now: float) -> None:
        return None

    def install(self, simulator) -> None:
        pass

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
