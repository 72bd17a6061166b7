"""Continuous telemetry: a bounded time-series store and a registry scraper.

Everything observability built so far -- :class:`~repro.obs.metrics.MetricRegistry`
snapshots, resilience counters, adaptive instruments -- is *pull on
demand*: a caller asks for the current totals after a run.  This module
adds the continuous half of the loop:

* :class:`TimeSeriesStore` keeps the last ``capacity`` samples of every
  series in a bounded ring buffer (old samples fall off the back), with
  the windowed **last** and **delta** aggregations the alerting rules in
  :mod:`repro.obs.rules` evaluate over.
* :class:`TelemetryScraper` reads one or more metric registries on a
  configurable tick cadence and samples every typed instrument's current
  value into the store under a ``scope.metric`` series name, so a fleet
  of shard registries becomes one queryable corpus.  Only instruments
  touched since the last scrape are re-read; the rest are carried forward.

Both are deliberately wall-clock free: samples are stamped with the
*virtual* service tick they were scraped at, and instruments whose
values depend on host wall clock (:data:`WALL_CLOCK_SERIES`) are dropped
by default so two runs of the same seeded scenario produce identical
stores.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import takewhile
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.obs.tracer import count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricRegistry

#: Registry series whose values depend on host wall clock.  The scraper
#: skips them so telemetry stays deterministic under a fixed seed.
WALL_CLOCK_SERIES: frozenset[str] = frozenset({"service_planning_seconds"})

#: Counters of the process, not the control plane (the durability layer's
#: journal, snapshot and recovery work): unlike every other counter, they
#: read no total a snapshot restores, and start again after a recovery.
PROCESS_SERIES: frozenset[str] = frozenset(
    {
        "durability_journal_records_total",
        "durability_journal_bytes_total",
        "durability_journal_fsyncs_total",
        "durability_snapshots_total",
        "durability_recovery_replayed_records",
        "durability_recovery_ticks",
    }
)

#: Histogram percentiles the scraper materializes as derived series
#: (``<name>_p50`` / ``<name>_p95``).
SCRAPED_QUANTILES: tuple[tuple[str, float], ...] = (("p50", 0.50), ("p95", 0.95))


def _same(a: float, b: float) -> bool:
    """Equal to the bit as far as any reading tells (``-0.0`` is not ``0.0``)."""
    return a == b and bool(a or math.copysign(1.0, a) == math.copysign(1.0, b))


def scoped_name(scope: str, metric: str) -> str:
    """The store series name of ``metric`` scraped under ``scope``."""
    return f"{scope}.{metric}" if scope else metric


class TimeSeriesStore:
    """Bounded per-series ring buffers of ``(time, value)`` samples.

    A series is appended to sample by sample (:meth:`append`) or *held*
    at a value (:meth:`hold`) and sampled at every :meth:`mark`; held
    samples reach the ring on the series' next read.

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
        # The newest ``capacity`` of the ``_marked`` scrape times so far,
        # kept once; a held series is ``[value, marks already in its ring]``
        # and is owed one sample per mark since, paid on its next read.
        self._marks: deque[float] = deque(maxlen=capacity)
        self._marked = 0
        self._held: dict[str, list] = {}
        # The change clock; series -> (clock, time) of its newest value
        # change (a first sample is one); held series the next mark changes.
        self.changes = 0
        self._changed: dict[str, tuple[int, float]] = {}
        self._due: dict[str, None] = {}

    # ------------------------------------------------------------------
    # Recording and lookup
    # ------------------------------------------------------------------
    def append(self, series: str, time: float, value: float) -> None:
        """Append one sample to ``series`` (evicting the oldest at capacity)."""
        ring = self._ring(series)
        if ring is None:
            ring = self._series[series] = deque(maxlen=self.capacity)
        if not ring or not _same(ring[-1][1], float(value)):
            self.changes += 1
            self._changed[series] = (self.changes, float(time))
        ring.append((float(time), float(value)))
        if series in self._held and not _same(self._held[series][0], float(value)):
            self._due[series] = None  # the next mark brings the held value back

    def hold(self, series: str, value: float) -> bool:
        """Carry ``value`` forward: one ``(time, value)`` sample per
        :meth:`mark` until the next ``hold``.  True if newly held."""
        value, entry = float(value), self._held.get(series)
        if entry is not None and _same(entry[0], value):
            return False  # carried already; the ring is paid on read
        if self._ring(series) is None:  # paid up: earlier marks keep the old value
            self._series[series] = deque(maxlen=self.capacity)
        self._due[series] = None  # the next mark changes its value
        self._held[series] = [value, self._marked]
        return entry is None

    def mark(self, now: float) -> None:
        """Stamp one sample of every held series at ``now``."""
        self._marks.append(float(now))
        self._marked += 1
        for series in self._due:
            self.changes += 1
            self._changed[series] = (self.changes, float(now))
        self._due.clear()

    def moved(self, name: str, since: int, span: float | None = None, now: float = 0.0) -> bool:
        """Whether a reading of ``name`` may differ from the one taken when
        :attr:`changes` read ``since``: the value changed since or, read
        over ``span`` up to ``now``, that window no longer holds two samples
        or more, all newer than the newest change and none after ``now``."""
        stamp, changed_at = self._changed.get(name, (0, None))
        if stamp > since:
            return True
        if span is None or changed_at is None:  # never sampled: reads None
            return False
        ring, start = self._ring(name), now - span
        return changed_at >= start or len(ring) < 2 or ring[-2][0] < start or ring[-1][0] > now

    def _ring(self, name: str) -> deque[tuple[float, float]] | None:
        """The series' ring with every sample it is owed appended."""
        ring = self._series.get(name)
        entry = self._held.get(name)
        if entry is not None and entry[1] != self._marked:
            value, marks = entry[0], self._marks
            # At most ``capacity`` samples survive, and as many marks.
            owed = min(self._marked - entry[1], len(marks))
            ring.extend((marks[i], value) for i in range(-owed, 0))
            entry[1] = self._marked
        return ring

    def names(self) -> list[str]:
        """All series names, sorted."""
        return sorted(self._series)

    def last(self, name: str) -> float | None:
        """Most recent value of a series, or ``None``."""
        ring = self._ring(name)
        return ring[-1][1] if ring else None

    def last_time(self, name: str) -> float | None:
        """Time of the most recent sample, or ``None``."""
        ring = self._ring(name)
        return ring[-1][0] if ring else None

    def window(
        self, name: str, duration: float | None = None, now: float | None = None
    ) -> list[tuple[float, float]]:
        """Samples with ``time >= now - duration`` (all with ``duration=None``).

        ``now`` defaults to the series' newest sample time.  Samples are
        taken to be in time order: the walk back from the newest stops
        at the first one older than the window.
        """
        ring = self._ring(name)
        if not ring or duration is None:
            return list(ring or ())
        end = now if now is not None else ring[-1][0]
        start = end - duration
        recent = list(takewhile(lambda point: point[0] >= start, reversed(ring)))
        return [point for point in reversed(recent) if point[0] <= end]

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

    def aggregate(
        self,
        name: str,
        how: str = "last",
        window: float | None = None,
        now: float | None = None,
    ) -> float | None:
        """Dispatch one named aggregation over a series.

        ``how`` is ``last`` or ``delta`` (the rule engine's expression
        vocabulary).
        """
        if how == "last":
            points = self.window(name, window, now)
            return points[-1][1] if points else None
        if how == "delta":
            return self.delta(name, window, now)
        raise ValueError(f"unknown aggregation {how!r}")

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, list[list[float]]]:
        """JSON-ready ``{series: [[time, value], ...]}``, sorted by name."""
        return {name: [[t, v] for t, v in self._ring(name)] for name in self.names()}


class TelemetryScraper:
    """Scrapes typed metric registries into a :class:`TimeSeriesStore`.

    Every due tick (:meth:`scrape`) gives every scraped series one
    sample.  The scraper re-reads only the instruments each registry's
    change feed names since its last scrape and hands the store their
    values to carry forward (:meth:`TimeSeriesStore.hold`):

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
        # [scope, registry, feed cursor (None = never scraped)] each.
        self._registries: list[list] = []
        self._sources: list[tuple[str, Callable[[], Mapping[str, float]]]] = []
        self._last_scrape: float | None = None
        self._carried = 0  # series this scraper holds in the store
        self.scrapes_total = 0
        self.samples_total = 0

    # ------------------------------------------------------------------
    def register(self, scope: str, registry: "MetricRegistry") -> None:
        """Add a registry to the scrape set (idempotent per scope+object);
        two under one scope must not share an instrument name."""
        if any(s == scope and r is registry for s, r, _ in self._registries):
            return
        self._registries.append([scope, registry, None])

    def add_source(
        self, scope: str, source: Callable[[], Mapping[str, float]]
    ) -> None:
        """Add a callable producing extra ``{metric: value}`` samples."""
        self._sources.append((scope, source))

    def scopes(self) -> list[str]:
        """Scopes with at least one registered registry or source."""
        out: list[str] = []
        for scope, *_ in [*self._registries, *self._sources]:
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
        held = sum(map(self._scrape_registry, self._registries))
        count("telemetry_series_held", held)
        # Held before marked: this scrape's sample carries the new value.
        self.store.mark(now)
        appended = self._carried
        for scope, source in self._sources:
            for metric, value in sorted(source().items()):
                if metric in WALL_CLOCK_SERIES or value is None:
                    continue
                self.store.append(scoped_name(scope, metric), now, float(value))
                appended += 1
        self.samples_total += appended
        return appended

    def _scrape_registry(self, entry: list) -> int:
        """Hold what the registry's feed names since the entry's cursor."""
        from repro.obs.metrics import Histogram

        scope, registry, cursor = entry
        names = registry.changes_since(cursor)
        entry[2] = registry.feed_cursor()
        held = 0
        for name in names:
            if name in WALL_CLOCK_SERIES:
                continue
            instrument = registry.get(name)
            base = scoped_name(scope, name)
            if isinstance(instrument, Histogram):
                values = {"_count": instrument.count, "_sum": instrument.sum}
                for suffix, q in SCRAPED_QUANTILES if instrument.count else ():
                    values[f"_{suffix}"] = instrument.percentile(q)
            else:  # a gauge never set has no sample yet
                values = {} if instrument.value is None else {"": instrument.value}
            for suffix, value in values.items():
                self._carried += self.store.hold(base + suffix, value)
            held += len(values)
        return held

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


# ----------------------------------------------------------------------
# CSV interchange
# ----------------------------------------------------------------------
def series_to_csv(
    series: Mapping[str, Iterable[Sequence[float]]],
    prefix: Mapping[str, str] | None = None,
) -> str:
    """Long-form CSV of an envelope's series table.

    Works straight off the ``series`` section of a ``repro.telemetry``
    (or per-candidate ``repro.lab``) envelope -- the same
    ``{name: [[time, value], ...]}`` shape :meth:`TimeSeriesStore.to_dict`
    produces.  With ``prefix``, the optional extra columns (e.g. a
    ``candidate`` column for lab envelopes) lead each row; column order
    is the sorted prefix keys, then ``series,time,value``.
    """
    prefix = dict(prefix or {})
    keys = sorted(prefix)
    lines = [",".join([*keys, "series", "time", "value"])]
    for name in sorted(series):
        label = _csv_field(name)
        lead = "".join(_csv_field(prefix[k]) + "," for k in keys)
        for point in series[name]:
            lines.append(f"{lead}{label},{point[0]!r},{point[1]!r}")
    return "\n".join(lines) + "\n"


def _csv_field(value: str) -> str:
    """Quote a CSV field only when it needs it (RFC 4180)."""
    text = str(value)
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text
