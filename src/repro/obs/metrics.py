"""Typed metrics: counters, gauges and histograms in one registry.

Call sites declare a *typed* instrument once (a :class:`Counter` that
can only go up, a :class:`Gauge` that tracks a level, a
:class:`Histogram` with bucketed percentiles) and update it.  The
:class:`MetricRegistry` holds each instrument's current value and a
change feed of the instruments updated since a cursor; history lives in
the telemetry layer's :class:`~repro.obs.timeseries.TimeSeriesStore`,
which scrapes the registry.

The registry exports in two formats:

* :meth:`MetricRegistry.exposition` -- Prometheus text exposition
  (``# TYPE`` / ``# HELP`` comments, ``_bucket{le=...}`` /
  ``_sum`` / ``_count`` histogram triples);
* :meth:`MetricRegistry.snapshot` -- a JSON-ready dict with the typed
  state (counter totals, gauge values, histogram percentiles).
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Sequence

from repro.utils import ChangeFeed

#: Default latency-ish histogram buckets (seconds), Prometheus-style.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class _Instrument:
    """Shared plumbing: identity, help text, the registry's change feed."""

    kind = ""

    def __init__(self, name: str, help: str, registry: MetricRegistry):
        self.name = name
        self.help = help
        self._touch = registry._feed.touch


class Counter(_Instrument):
    """A monotonically non-decreasing total."""

    kind = "counter"

    total = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.total += amount
        self._touch(self.name)

    def sync_total(self, total: float) -> None:
        """Adopt an externally maintained monotonic total.

        For call sites where another object is the source of truth
        (e.g. the admission controller's ``admitted_total``): enforces
        monotonicity, then records like :meth:`inc`.
        """
        if total < self.total:
            raise ValueError(
                f"counter {self.name!r} cannot decrease ({self.total} -> {total})"
            )
        self.total = float(total)
        self._touch(self.name)

    @property
    def value(self) -> float:
        """The current total."""
        return self.total


class Gauge(_Instrument):
    """An instantaneous level that can go up and down."""

    kind = "gauge"

    _value: float | None = None
    _pending: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        """Set the gauge (replacing a pending value)."""
        self._pending = None
        self._value = float(value)
        self._touch(self.name)

    def set_lazy(self, compute: Callable[[], float]) -> None:
        """Set the gauge pending: ``compute()`` runs at the first read of
        :attr:`value`; the feed moves now.  The caller vouches that what
        ``compute`` reads changes only through a later write here."""
        self._pending = compute
        self._touch(self.name)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.set((self.value or 0.0) + amount)

    @property
    def value(self) -> float | None:
        """The last value set (computed now if pending), or ``None``."""
        if self._pending is not None:
            self._value = float(self._pending())
            self._pending = None
        return self._value


class Histogram(_Instrument):
    """A distribution summarized by cumulative buckets.

    Buckets are upper bounds (``le``) as in Prometheus; an implicit
    ``+Inf`` bucket always exists.  Percentiles are estimated by linear
    interpolation inside the bucket containing the requested rank,
    clamped to the observed min/max -- exact enough for operator-facing
    p50/p95 readouts without retaining every sample.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        registry: MetricRegistry,
        buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help, registry)
        # Dedupe and drop non-finite bounds: the +Inf bucket is implicit,
        # so a caller-supplied inf would double it in the exposition.
        bounds = tuple(
            sorted(
                {
                    float(b)
                    for b in (buckets if buckets is not None else DEFAULT_BUCKETS)
                    if math.isfinite(b)
                }
            )
        )
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket bound")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self._touch(self.name)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (NaN when empty)."""
        return self.sum / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 <= q <= 1``) from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            lo = self.bounds[i - 1] if i > 0 else max(0.0, self.min)
            hi = self.bounds[i] if i < len(self.bounds) else self.max
            if cumulative + bucket_count >= rank:
                within = (rank - cumulative) / bucket_count
                estimate = lo + within * (hi - lo)
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max  # pragma: no cover - rank <= count always lands above

    def summary(self) -> dict[str, float]:
        """min/mean/p50/p95/max summary of the distribution."""
        return {
            "count": float(self.count),
            "min": self.min if self.count else math.nan,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "max": self.max if self.count else math.nan,
        }


class MetricRegistry:
    """Named, typed instruments and their current values.

    Instruments are get-or-create: asking for the same name with the
    same kind returns the existing instrument; a kind mismatch raises.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._feed = ChangeFeed()  # instruments declared or updated

    # -- declaration --------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the :class:`Counter` called ``name``."""
        return self._declare(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the :class:`Gauge` called ``name``."""
        return self._declare(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        """Get or create the :class:`Histogram` called ``name``."""
        return self._declare(Histogram, name, help, buckets=buckets)

    def _declare(self, cls: type, name: str, help: str, **options):
        existing = self._instruments.get(name)
        if existing is None:
            instrument = cls(name, help, self, **options)
            self._instruments[name] = instrument
            self._feed.touch(name)
            return instrument
        if type(existing) is not cls:
            raise TypeError(
                f"metric {name!r} is a {existing.kind}, not a {cls.kind}"
            )
        return existing

    # -- lookup -------------------------------------------------------
    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._instruments)

    def get(self, name: str) -> _Instrument | None:
        """The instrument called ``name``, or ``None``."""
        return self._instruments.get(name)

    # -- change feed --------------------------------------------------
    def feed_cursor(self) -> int:
        """The feed position after the latest declaration or update, for
        :meth:`changes_since`; any number of readers may hold one."""
        return self._feed.cursor

    def changes_since(self, cursor: int | None) -> list[str]:
        """Names of the instruments declared or updated since ``cursor``
        (``None``: all of them), oldest change first, each once; an
        update to the value it already had counts."""
        names = self._feed.since(cursor)
        return list(self._instruments) if names is None else names

    # -- export -------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state of every instrument."""
        out: dict[str, Any] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                entry: dict[str, Any] = {
                    "type": instrument.kind,
                    **instrument.summary(),
                    "sum": instrument.sum,
                    "buckets": {
                        _fmt_bound(b): c
                        for b, c in zip(
                            (*instrument.bounds, math.inf), instrument.bucket_counts
                        )
                    },
                }
                # NaN is not valid JSON; empty histograms export nulls.
                entry = {
                    k: (None if isinstance(v, float) and math.isnan(v) else v)
                    for k, v in entry.items()
                }
            else:
                entry = {"type": instrument.kind, "value": instrument.value}
            if instrument.help:
                entry["help"] = instrument.help
            out[name] = entry
        return out

    def exposition(self) -> str:
        """Prometheus text exposition of every instrument.

        Conforms to the text-format rules: metric names are sanitized to
        ``[a-zA-Z_:][a-zA-Z0-9_:]*``, HELP text has ``\\`` and newlines
        escaped, and histograms always emit their full bucket ladder
        (including ``+Inf``), ``_sum`` and ``_count`` -- even before the
        first observation.
        """
        lines: list[str] = []
        for name in self.names():
            instrument = self._instruments[name]
            exposed = _sanitize_name(name)
            if instrument.help:
                lines.append(f"# HELP {exposed} {_escape_help(instrument.help)}")
            lines.append(f"# TYPE {exposed} {instrument.kind}")
            if isinstance(instrument, Histogram):
                cumulative = 0
                for bound, count in zip(
                    (*instrument.bounds, math.inf), instrument.bucket_counts
                ):
                    cumulative += count
                    lines.append(
                        f'{exposed}_bucket{{le="{_fmt_bound(bound)}"}} {cumulative}'
                    )
                lines.append(f"{exposed}_sum {_fmt_value(instrument.sum)}")
                lines.append(f"{exposed}_count {instrument.count}")
            else:
                value = instrument.value
                lines.append(f"{exposed} {_fmt_value(0.0 if value is None else value)}")
        return "\n".join(lines) + "\n"


def _sanitize_name(name: str) -> str:
    """Force a metric name into ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not sanitized or not re.match(r"[a-zA-Z_:]", sanitized[0]):
        sanitized = "_" + sanitized
    return sanitized


def _escape_help(text: str) -> str:
    """Escape HELP text per the Prometheus text format (``\\`` and LF)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else f"{bound:g}"


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"

