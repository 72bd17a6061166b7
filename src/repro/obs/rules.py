"""Declarative recording and alerting rules over a TimeSeriesStore.

The Prometheus half the fleet was missing: :class:`RulesEngine` walks a
list of rules every evaluation tick and re-derives those whose readings
may have moved.  *Recording* rules
(:class:`RecordingRule`) sum the ``last``/``delta`` aggregates of their
series and write the total back into the store as a new series;
*alerting* rules (:class:`ThresholdRule`, :class:`AbsenceRule`,
:class:`BurnRateRule`) evaluate a breach
condition with ``for``-duration hysteresis and drive a
``pending -> firing -> resolved`` lifecycle:

* a breach moves an inactive rule to **PENDING**;
* a breach sustained for ``for_ticks`` virtual ticks moves it to
  **FIRING** (``for_ticks=0`` fires immediately);
* the condition clearing moves PENDING back to **INACTIVE** and FIRING
  to **RESOLVED** (one tick in RESOLVED, then INACTIVE -- so consumers
  see exactly one resolution transition).

Everything is virtual-time: the engine never reads a wall clock, so
a seeded scenario fires its alerts at the same ticks on every run.
:func:`default_rule_pack` ships the stock SLO pack -- cache hit rate,
admission queue wait, migration/cutover failures, breaker trips and
capacity.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Callable, Mapping, Sequence

from repro.obs.timeseries import TimeSeriesStore, scoped_name
from repro.obs.tracer import count

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class RuleState(enum.Enum):
    """Alerting-rule lifecycle states."""

    INACTIVE = "inactive"
    PENDING = "pending"
    FIRING = "firing"
    RESOLVED = "resolved"


class AlertRule:
    """Base alerting rule: breach detection + ``for``-duration hysteresis.

    Args:
        name: Unique rule name (``scope:slug`` by convention).
        severity: Free-form label (``page`` / ``warn`` / ``info``).
        for_ticks: Virtual ticks a breach must persist before the rule
            fires; ``0`` fires on the first breached evaluation.
        labels: Extra key/value annotations carried on every event.
    """

    kind = "alert"
    #: ``(series, span)`` per reading (:meth:`RulesEngine._stands`); None: moves with time.
    reads: list[tuple[str, float | None]] | None = None

    def __init__(
        self,
        name: str,
        severity: str = "warn",
        for_ticks: float = 0.0,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        self.name = name
        self.severity = severity
        self.for_ticks = for_ticks
        self.labels = dict(labels or {})
        self.state = RuleState.INACTIVE
        self.pending_since: float | None = None
        self.fired_at: float | None = None
        self.resolved_at: float | None = None
        self.last_value: float | None = None
        self.fire_count = 0
        self._seen: int | None = None  # see RulesEngine._stands

    # -- subclass API --------------------------------------------------
    def value(self, store: TimeSeriesStore, now: float) -> float | None:
        """The observed value driving the rule (``None`` = no data)."""
        raise NotImplementedError

    def breached(self, value: float | None, now: float) -> bool:
        """Whether ``value`` violates the rule at ``now``."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human condition, for docs and the dashboard."""
        return self.name

    # -- lifecycle -----------------------------------------------------
    def evaluate(self, store: TimeSeriesStore, now: float) -> dict[str, Any] | None:
        """Advance the lifecycle; returns a transition event or ``None``."""
        value = self.value(store, now)
        self.last_value = value
        breach = self.breached(value, now)
        before = self.state
        if breach:
            if self.state in (RuleState.INACTIVE, RuleState.RESOLVED):
                self.state = RuleState.PENDING
                self.pending_since = now
            if self.state is RuleState.PENDING:
                assert self.pending_since is not None
                if now - self.pending_since >= self.for_ticks:
                    self.state = RuleState.FIRING
                    self.fired_at = now
                    self.fire_count += 1
        else:
            if self.state is RuleState.PENDING:
                self.state = RuleState.INACTIVE
                self.pending_since = None
            elif self.state is RuleState.FIRING:
                self.state = RuleState.RESOLVED
                self.resolved_at = now
            elif self.state is RuleState.RESOLVED:
                self.state = RuleState.INACTIVE
                self.pending_since = None
        if self.state is before:
            return None
        return {
            "rule": self.name,
            "severity": self.severity,
            "time": now,
            "from": before.value,
            "to": self.state.value,
            "value": value,
            "labels": dict(self.labels),
        }

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready current state, for the telemetry envelope."""
        return {
            "name": self.name,
            "kind": self.kind,
            "severity": self.severity,
            "state": self.state.value,
            "for_ticks": self.for_ticks,
            "condition": self.describe(),
            "value": self.last_value,
            "pending_since": self.pending_since,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "fire_count": self.fire_count,
            "labels": dict(self.labels),
        }


class ThresholdRule(AlertRule):
    """Fires when an aggregated series crosses a threshold.

    ``aggregate`` is a :meth:`TimeSeriesStore.aggregate` mode (``last``
    or ``delta``); the optional warm-up guard (``activate_series`` >=
    ``activate_at``) keeps startup transients -- a cache hit rate that is
    0.0 before the first lookup -- from paging anyone.
    """

    kind = "threshold"

    def __init__(
        self,
        name: str,
        series: str,
        op: str,
        threshold: float,
        aggregate: str = "last",
        window: float | None = None,
        activate_series: str | None = None,
        activate_at: float = 1.0,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, **kwargs)
        if op not in _OPS:
            raise ValueError(f"unknown comparison {op!r}; use one of {sorted(_OPS)}")
        self.series = series
        self.op = op
        self.threshold = threshold
        self.aggregate = aggregate
        self.window = window
        self.activate_series = activate_series
        self.activate_at = activate_at
        span = window if window is not None or aggregate == "last" else math.inf
        self.reads = [(series, span)]
        if activate_series is not None:
            self.reads.append((activate_series, None))
        self._store: TimeSeriesStore | None = None
        self._now = 0.0

    def value(self, store: TimeSeriesStore, now: float) -> float | None:
        self._store, self._now = store, now
        return store.aggregate(self.series, self.aggregate, window=self.window, now=now)

    def breached(self, value: float | None, now: float) -> bool:
        if value is None:
            return False
        if self.activate_series is not None and self._store is not None:
            warm = self._store.last(self.activate_series)
            if warm is None or warm < self.activate_at:
                return False
        return _OPS[self.op](value, self.threshold)

    def describe(self) -> str:
        win = f"[{self.window:g}]" if self.window is not None else ""
        return f"{self.aggregate}({self.series}{win}) {self.op} {self.threshold:g}"


class AbsenceRule(AlertRule):
    """Fires when a series stops reporting (no sample for ``stale_after``)."""

    kind = "absence"

    def __init__(self, name: str, series: str, stale_after: float, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self.series = series
        self.stale_after = stale_after

    def value(self, store: TimeSeriesStore, now: float) -> float | None:
        last = store.last_time(self.series)
        return None if last is None else now - last

    def breached(self, value: float | None, now: float) -> bool:
        # A series that never reported at all also counts as absent.
        return value is None or value > self.stale_after

    def describe(self) -> str:
        return f"absent({self.series}) > {self.stale_after:g} ticks"


class BurnRateRule(AlertRule):
    """SLO burn-rate alert over a good-events / total-events counter pair.

    With an objective of e.g. 0.95 the error *budget* is 5%; burn rate
    is the windowed error ratio divided by that budget, so burn 1.0
    spends the budget exactly on schedule and ``max_burn`` of 4-14 are
    the classic fast-burn thresholds.
    """

    kind = "burn_rate"

    def __init__(
        self,
        name: str,
        good_series: str,
        total_series: str,
        objective: float,
        max_burn: float,
        window: float | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, **kwargs)
        if not 0.0 < objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {objective}")
        self.good_series = good_series
        self.total_series = total_series
        self.objective = objective
        self.max_burn = max_burn
        self.window = window
        span = math.inf if window is None else window
        self.reads = [(s, span) for s in (good_series, total_series)]

    def value(self, store: TimeSeriesStore, now: float) -> float | None:
        good = store.delta(self.good_series, self.window, now)
        total = store.delta(self.total_series, self.window, now)
        if good is None or total is None or total <= 0:
            return None
        error_ratio = max(0.0, 1.0 - good / total)
        return error_ratio / (1.0 - self.objective)

    def breached(self, value: float | None, now: float) -> bool:
        return value is not None and value > self.max_burn

    def describe(self) -> str:
        win = f"[{self.window:g}]" if self.window is not None else ""
        return (
            f"burn({self.good_series}/{self.total_series}{win}, "
            f"slo={self.objective:g}) > {self.max_burn:g}"
        )


class RecordingRule:
    """Records the sum of one aggregation over its series as a new series.

    The recorded series is then available to alert rules and the
    dashboard like any scraped one.
    """

    kind = "recording"

    def __init__(self, name: str, series: str | Sequence[str], aggregate: str = "last") -> None:
        self.name = name
        self.series = [series] if isinstance(series, str) else list(series)
        self.aggregate = aggregate
        self.last_value: float | None = None
        self.reads = [(s, None if aggregate == "last" else math.inf) for s in self.series]
        self._seen: int | None = None

    def evaluate(self, store: TimeSeriesStore, now: float) -> None:
        values = [
            v
            for v in (store.aggregate(s, self.aggregate, now=now) for s in self.series)
            if v is not None
        ]
        if not values:
            self.last_value = None
            return
        self.last_value = value = sum(values)
        store.append(self.name, now, value)

    def snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "aggregate": self.aggregate,
            "series": list(self.series),
            "value": self.last_value,
        }


class RulesEngine:
    """Evaluates recording rules then alert rules, in declaration order.

    Recording rules run first so alerts can watch derived series
    computed on the same tick.  :meth:`evaluate` returns the lifecycle
    transitions that happened this tick; the full transition history is
    kept on :attr:`events`.
    """

    def __init__(self, store: TimeSeriesStore) -> None:
        self.store = store
        self.recording: list[RecordingRule] = []
        self.alerts: list[AlertRule] = []
        self.events: list[dict[str, Any]] = []

    def add(self, rule: AlertRule | RecordingRule) -> None:
        """Register a rule; duplicate names raise."""
        existing = {r.name for r in [*self.recording, *self.alerts]}
        if rule.name in existing:
            raise ValueError(f"duplicate rule name {rule.name!r}")
        if isinstance(rule, RecordingRule):
            self.recording.append(rule)
        else:
            self.alerts.append(rule)

    def evaluate(self, now: float) -> list[dict[str, Any]]:
        """Run every rule at virtual time ``now`` unless it :meth:`_stands`;
        returns transitions."""
        store, transitions, evaluated = self.store, [], 0
        for rule in [*self.recording, *self.alerts]:
            if self._stands(rule, rule._seen, now):
                if isinstance(rule, RecordingRule) and rule.last_value is not None:
                    store.append(rule.name, now, rule.last_value)
                continue
            clock = store.changes
            event = rule.evaluate(store, now)
            evaluated += 1
            rule._seen = clock if self._stands(rule, clock, now) else None
            if event is not None:
                transitions.append(event)
        count("rules_evaluated", evaluated)
        self.events.extend(transitions)
        return transitions

    def _stands(self, rule: AlertRule | RecordingRule, seen: int | None, now: float) -> bool:
        """Whether evaluating ``rule`` at ``now`` gives what it gave when the
        store's change clock read ``seen``: no reading moved since (a span
        is a window, ``None`` the newest value alone, ``inf`` the whole
        ring), and the rule is not in a state that moves with time alone."""
        timed = (RuleState.PENDING, RuleState.RESOLVED)
        if seen is None or rule.reads is None or getattr(rule, "state", None) in timed:
            return False
        return not any(self.store.moved(s, seen, span, now) for s, span in rule.reads)

    def firing(self) -> list[AlertRule]:
        """Alert rules currently in the FIRING state."""
        return [r for r in self.alerts if r.state is RuleState.FIRING]

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready rules + transition history for the envelope."""
        return {
            "recording": [r.snapshot() for r in self.recording],
            "alerts": [r.snapshot() for r in self.alerts],
            "events": [dict(e) for e in self.events],
        }


# ----------------------------------------------------------------------
# Default SLO rule pack
# ----------------------------------------------------------------------
def default_rule_pack(
    scopes: Sequence[str] = ("service",),
) -> list[AlertRule | RecordingRule]:
    """The stock SLO pack: one set of watchdogs per service scope.

    Per scope: plan-cache hit rate collapse (with an admitted-queries
    warm-up guard), admission queue wait p95, breaker trips, migration
    aborts and cutover failures (delta > 0), a liveness absence rule on
    the queue-depth gauge, and two capacity watchdogs (hottest-node
    utilization above 95% with hysteresis, and load-shed events) that
    only ever fire on resource-armed services.
    """
    rules: list[AlertRule | RecordingRule] = []
    for scope in scopes:
        s = lambda metric: scoped_name(scope, metric)  # noqa: E731
        rules.append(
            ThresholdRule(
                f"{scope}:cache_hit_rate_low",
                s("service_cache_hit_rate"),
                "<",
                0.5,
                for_ticks=3.0,
                activate_series=s("service_plan_cache_misses_total"),
                activate_at=4.0,
                severity="warn",
                labels={"scope": scope, "slo": "plan_cache"},
            )
        )
        rules.append(
            ThresholdRule(
                f"{scope}:admission_queue_wait_high",
                s("admission_queue_wait_ticks_p95"),
                ">",
                8.0,
                severity="page",
                for_ticks=2.0,
                labels={"scope": scope, "slo": "admission_latency"},
            )
        )
        rules.append(
            ThresholdRule(
                f"{scope}:breaker_tripped",
                s("resilience_breaker_opens_total"),
                ">",
                0.0,
                aggregate="delta",
                window=3.0,
                severity="page",
                labels={"scope": scope, "slo": "control_plane"},
            )
        )
        rules.append(
            ThresholdRule(
                f"{scope}:migration_failures",
                s("adaptive_migration_aborts_total"),
                ">",
                0.0,
                aggregate="delta",
                window=3.0,
                severity="warn",
                labels={"scope": scope, "slo": "migrations"},
            )
        )
        # The service registry has no submitted_total counter; derive it
        # so the burn rule has a denominator.
        rules.append(
            RecordingRule(
                s("service_submitted_total"),
                [s("service_admitted_total"), s("service_rejected_total")],
                aggregate="last",
            )
        )
        rules.append(
            BurnRateRule(
                f"{scope}:admission_slo_burn",
                s("service_admitted_total"),
                s("service_submitted_total"),
                objective=0.9,
                max_burn=4.0,
                window=8.0,
                severity="warn",
                labels={"scope": scope, "slo": "admission_yield"},
            )
        )
        rules.append(
            AbsenceRule(
                f"{scope}:telemetry_stalled",
                s("service_queue_depth"),
                stale_after=5.0,
                for_ticks=2.0,
                severity="warn",
                labels={"scope": scope, "slo": "liveness"},
            )
        )
        # Resource hotspot: the hottest node sat above 95% of its bound
        # for two consecutive ticks (hysteresis so one transient
        # placement spike does not page).  Series only exists on
        # resource-armed services; absent series never fire.
        rules.append(
            ThresholdRule(
                f"{scope}:resource_hotspot",
                s("resource_max_utilization"),
                ">",
                0.95,
                for_ticks=2.0,
                severity="page",
                labels={"scope": scope, "slo": "capacity"},
            )
        )
        rules.append(
            ThresholdRule(
                f"{scope}:resource_shedding",
                s("resource_shed_total"),
                ">",
                0.0,
                aggregate="delta",
                window=3.0,
                severity="warn",
                labels={"scope": scope, "slo": "capacity"},
            )
        )
    return rules
