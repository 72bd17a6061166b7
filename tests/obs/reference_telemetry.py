"""The eager telemetry path the lazy one is checked against.

These are :class:`repro.obs.timeseries.TimeSeriesStore` and
:class:`repro.obs.timeseries.TelemetryScraper` as they stood before the
scraper read a change feed: every scrape walks every instrument of every
registry in name order, formats its series names and appends one sample
per series to that series' ring, whether or not the value moved.  They
keep nothing between scrapes but the rings, so they are right by
construction whatever was declared or updated since the last scrape --
and O(series) per scrape, which is why the shipped pair does not work
this way.  The class bodies are unedited.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.obs.timeseries import (
    SCRAPED_QUANTILES,
    WALL_CLOCK_SERIES,
    scoped_name,
    series_to_csv,
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

    def to_csv(self) -> str:
        """Long-form CSV of every retained sample: ``series,time,value``.

        One row per sample, series in name order, samples in time order
        within a series -- the tidy layout pandas/R/gnuplot ingest
        directly, so external plotting needs no JSON parsing.  Values
        serialize with ``repr`` (round-trippable floats), which keeps
        the output deterministic for a deterministic store.
        """
        return series_to_csv(self.to_dict())



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
        include_wall_clock: Keep series named in
            :data:`WALL_CLOCK_SERIES` instead of dropping them.
        drop: Extra metric names to skip.
    """

    def __init__(
        self,
        store: TimeSeriesStore,
        cadence: float = 1.0,
        include_wall_clock: bool = False,
        drop: Iterable[str] = (),
    ) -> None:
        if cadence <= 0:
            raise ValueError("cadence must be positive")
        self.store = store
        self.cadence = cadence
        self._drop = set(drop)
        if not include_wall_clock:
            self._drop |= WALL_CLOCK_SERIES
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
                if metric in self._drop or value is None:
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
            if name in self._drop:
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
