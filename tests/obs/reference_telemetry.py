"""The eager telemetry path the lazy one is checked against.

These are :class:`repro.obs.timeseries.TimeSeriesStore` and
:class:`repro.obs.timeseries.TelemetryScraper` as they stood before the
scraper read a change feed: every scrape walks every instrument of every
registry in name order, formats its series names and appends one sample
per series to that series' ring, whether or not the value moved.  They
keep nothing between scrapes but the rings, so they are right by
construction whatever was declared or updated since the last scrape --
and O(series) per scrape, which is why the shipped pair does not work
this way.

The rule classes and :class:`RulesEngine` below are those of
:mod:`repro.obs.rules` as they stood before the engine re-derived only
the rules whose readings moved: every evaluation runs every rule over
the store.  The class bodies are unedited.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.obs.timeseries import (
    SCRAPED_QUANTILES,
    WALL_CLOCK_SERIES,
    scoped_name,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricRegistry


class TimeSeriesStore:
    """Bounded per-series ring buffers of ``(time, value)`` samples.

    Args:
        capacity: Samples kept per series; appending past it drops the
            oldest sample (a ring buffer, so memory is bounded no matter
            how long the fleet runs).
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._series: dict[str, deque[tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # Recording and lookup
    # ------------------------------------------------------------------
    def append(self, series: str, time: float, value: float) -> None:
        """Append one sample to ``series`` (evicting the oldest at capacity)."""
        ring = self._series.get(series)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._series[series] = ring
        ring.append((float(time), float(value)))

    def names(self) -> list[str]:
        """All series names, sorted."""
        return sorted(self._series)

    def series(self, name: str) -> list[tuple[float, float]]:
        """The retained ``(time, value)`` samples of one series."""
        return list(self._series.get(name, ()))

    def last(self, name: str) -> float | None:
        """Most recent value of a series, or ``None``."""
        ring = self._series.get(name)
        return ring[-1][1] if ring else None

    def last_time(self, name: str) -> float | None:
        """Time of the most recent sample, or ``None``."""
        ring = self._series.get(name)
        return ring[-1][0] if ring else None

    def window(
        self, name: str, duration: float | None = None, now: float | None = None
    ) -> list[tuple[float, float]]:
        """Samples with ``time >= now - duration`` (all with ``duration=None``).

        ``now`` defaults to the series' newest sample time.
        """
        points = self.series(name)
        if not points or duration is None:
            return points
        end = now if now is not None else points[-1][0]
        start = end - duration
        return [(t, v) for t, v in points if start <= t <= end]

    def __len__(self) -> int:
        return len(self._series)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def delta(
        self, name: str, window: float | None = None, now: float | None = None
    ) -> float | None:
        """``last - first`` over the window (counter growth); ``None`` when
        fewer than two samples are retained."""
        points = self.window(name, window, now)
        if len(points) < 2:
            return None
        return points[-1][1] - points[0][1]

    def rate(
        self, name: str, window: float | None = None, now: float | None = None
    ) -> float | None:
        """Per-tick increase over the window (``delta / elapsed``)."""
        points = self.window(name, window, now)
        if len(points) < 2:
            return None
        elapsed = points[-1][0] - points[0][0]
        if elapsed <= 0:
            return None
        return (points[-1][1] - points[0][1]) / elapsed

    def ewma(
        self,
        name: str,
        alpha: float = 0.3,
        window: float | None = None,
        now: float | None = None,
    ) -> float | None:
        """Exponentially weighted moving average over the window."""
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        points = self.window(name, window, now)
        if not points:
            return None
        smoothed = points[0][1]
        for _, value in points[1:]:
            smoothed = alpha * value + (1.0 - alpha) * smoothed
        return smoothed

    def quantile(
        self,
        name: str,
        q: float,
        window: float | None = None,
        now: float | None = None,
        buckets: Sequence[float] | None = None,
    ) -> float | None:
        """Bucketed ``q``-quantile estimate over the window's values.

        Window values are binned into cumulative buckets (16 linear bins
        between the observed min and max when ``buckets`` is omitted) and
        the quantile is linearly interpolated inside the bucket holding
        the requested rank -- the same estimator
        :meth:`repro.obs.metrics.Histogram.percentile` uses, applied to a
        sliding window instead of an all-time histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        values = [v for _, v in self.window(name, window, now)]
        if not values:
            return None
        lo, hi = min(values), max(values)
        if lo == hi:
            return lo
        if buckets is None:
            bins = 16
            bounds = [lo + (hi - lo) * i / bins for i in range(1, bins + 1)]
        else:
            bounds = sorted(b for b in buckets if math.isfinite(b))
            if not bounds:
                raise ValueError("quantile buckets need a finite bound")
        counts = [0] * (len(bounds) + 1)  # last bin = overflow
        for value in values:
            for i, bound in enumerate(bounds):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        rank = q * len(values)
        cumulative = 0
        for i, count in enumerate(counts):
            if count == 0:
                continue
            bin_lo = bounds[i - 1] if i > 0 else lo
            bin_hi = bounds[i] if i < len(bounds) else hi
            if cumulative + count >= rank:
                within = (rank - cumulative) / count
                estimate = bin_lo + within * (bin_hi - bin_lo)
                return min(max(estimate, lo), hi)
            cumulative += count
        return hi  # pragma: no cover - rank <= len(values) lands above

    def aggregate(
        self,
        name: str,
        how: str = "last",
        window: float | None = None,
        now: float | None = None,
        q: float | None = None,
        alpha: float = 0.3,
    ) -> float | None:
        """Dispatch one named aggregation over a series.

        ``how`` is one of ``last`` / ``min`` / ``max`` / ``mean`` /
        ``delta`` / ``rate`` / ``ewma`` / ``quantile`` (the rule
        engine's expression vocabulary).
        """
        if how == "last":
            points = self.window(name, window, now)
            return points[-1][1] if points else None
        if how == "delta":
            return self.delta(name, window, now)
        if how == "rate":
            return self.rate(name, window, now)
        if how == "ewma":
            return self.ewma(name, alpha=alpha, window=window, now=now)
        if how == "quantile":
            if q is None:
                raise ValueError("aggregate('quantile') needs q")
            return self.quantile(name, q, window=window, now=now)
        if how in ("min", "max", "mean"):
            values = [v for _, v in self.window(name, window, now)]
            if not values:
                return None
            if how == "min":
                return min(values)
            if how == "max":
                return max(values)
            return sum(values) / len(values)
        raise ValueError(f"unknown aggregation {how!r}")

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, list[list[float]]]:
        """JSON-ready ``{series: [[time, value], ...]}``, sorted by name."""
        return {
            name: [[t, v] for t, v in self._series[name]]
            for name in self.names()
        }

    @classmethod
    def from_dict(
        cls, doc: Mapping[str, Iterable[Sequence[float]]], capacity: int = 512
    ) -> "TimeSeriesStore":
        """Rebuild a store from :meth:`to_dict` output."""
        store = cls(capacity=capacity)
        for name, points in doc.items():
            for point in points:
                store.append(name, point[0], point[1])
        return store



class TelemetryScraper:
    """Scrapes typed metric registries into a :class:`TimeSeriesStore`.

    On every due tick (:meth:`scrape`) the scraper walks each registered
    registry's instruments and appends:

    * counters -- the running total, under ``scope.name``;
    * gauges -- the current level (skipped while never set);
    * histograms -- ``scope.name_count`` and ``scope.name_sum`` plus the
      :data:`SCRAPED_QUANTILES` estimates (``_p50`` / ``_p95``).

    Extra non-registry values (tenant summaries, federation state, ...)
    plug in through :meth:`add_source` callables.

    Args:
        store: Destination store.
        cadence: Minimum ticks between scrapes (1.0 = every tick).

    Series named in :data:`WALL_CLOCK_SERIES` are never scraped.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        cadence: float = 1.0,
    ) -> None:
        if cadence <= 0:
            raise ValueError("cadence must be positive")
        self.store = store
        self.cadence = cadence
        self._registries: list[tuple[str, "MetricRegistry"]] = []
        self._sources: list[tuple[str, Callable[[], Mapping[str, float]]]] = []
        self._last_scrape: float | None = None
        self.scrapes_total = 0
        self.samples_total = 0

    # ------------------------------------------------------------------
    def register(self, scope: str, registry: "MetricRegistry") -> None:
        """Add a registry to the scrape set (idempotent per scope+object)."""
        if any(s == scope and r is registry for s, r in self._registries):
            return
        self._registries.append((scope, registry))

    def add_source(
        self, scope: str, source: Callable[[], Mapping[str, float]]
    ) -> None:
        """Add a callable producing extra ``{metric: value}`` samples."""
        self._sources.append((scope, source))

    def scopes(self) -> list[str]:
        """Scopes with at least one registered registry or source."""
        out: list[str] = []
        for scope, _ in [*self._registries, *self._sources]:
            if scope not in out:
                out.append(scope)
        return out

    # ------------------------------------------------------------------
    def due(self, now: float) -> bool:
        """Whether a scrape is due at ``now`` (the first always is)."""
        if self._last_scrape is None:
            return True
        return now - self._last_scrape >= self.cadence

    def scrape(self, now: float, force: bool = False) -> int:
        """Scrape every registry/source if due; returns samples appended."""
        if not force and not self.due(now):
            return 0
        self._last_scrape = now
        self.scrapes_total += 1
        appended = 0
        for scope, registry in self._registries:
            appended += self._scrape_registry(scope, registry, now)
        for scope, source in self._sources:
            for metric, value in sorted(source().items()):
                if metric in WALL_CLOCK_SERIES or value is None:
                    continue
                self.store.append(scoped_name(scope, metric), now, float(value))
                appended += 1
        self.samples_total += appended
        return appended

    def _scrape_registry(
        self, scope: str, registry: "MetricRegistry", now: float
    ) -> int:
        from repro.obs.metrics import Histogram

        appended = 0
        for name in registry.names():
            if name in WALL_CLOCK_SERIES:
                continue
            instrument = registry.get(name)
            base = scoped_name(scope, name)
            if isinstance(instrument, Histogram):
                self.store.append(f"{base}_count", now, float(instrument.count))
                self.store.append(f"{base}_sum", now, float(instrument.sum))
                appended += 2
                if instrument.count:
                    for suffix, q in SCRAPED_QUANTILES:
                        self.store.append(
                            f"{base}_{suffix}", now, instrument.percentile(q)
                        )
                        appended += 1
            else:
                value = instrument.value
                if value is None:
                    continue
                self.store.append(base, now, float(value))
                appended += 1
        return appended

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Scraper counters for reports and the dashboard header."""
        return {
            "cadence": self.cadence,
            "scopes": self.scopes(),
            "scrapes": self.scrapes_total,
            "samples": self.samples_total,
            "series": len(self.store),
        }


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
        """Run every rule at virtual time ``now``; returns transitions."""
        for rule in self.recording:
            rule.evaluate(self.store, now)
        transitions: list[dict[str, Any]] = []
        for rule in self.alerts:
            event = rule.evaluate(self.store, now)
            if event is not None:
                transitions.append(event)
        self.events.extend(transitions)
        return transitions

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
