"""Runtime statistics monitoring: EWMA rate estimation and drift detection.

The planners price every plan from *estimated* stream rates; the IPDPS'07
cost model (communication cost = sum of rate x traversal cost) makes a
deployment priced under stale rates arbitrarily wrong once rates drift.
:class:`StatsMonitor` closes the observation half of the adaptive loop:

* it maintains one :class:`EwmaEstimator` per base stream (seeded with
  the catalog rate) fed per-tick rate samples;
* :meth:`StatsMonitor.maybe_publish` detects drift with a relative-change
  threshold plus hysteresis (a stream must breach the threshold for
  ``hysteresis_ticks`` *consecutive* checks, and publications are rate
  limited by ``publish_cooldown``), then publishes the drifted estimates
  into the shared :class:`~repro.core.cost.RateModel` -- whose version
  bump is what fires the lifecycle service's statistics epoch and
  invalidates stale cached plans.

Publication is deliberately the *only* side effect: deciding whether a
deployed query should chase the new statistics is the re-optimization
policy's job (:mod:`repro.adaptive.policy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.cost import RateModel
from repro.errors import ObservationError, UnknownStreamError
from repro.query.stream import StreamSpec


class EwmaEstimator:
    """Exponentially weighted moving average over a scalar signal.

    Args:
        alpha: Smoothing factor in ``(0, 1]``; higher reacts faster.
        initial: Optional prior (e.g. the catalog rate).  With a prior
            the estimator is never empty; without one the first sample
            becomes the value.
    """

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float = 0.3, initial: float | None = None) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value = initial

    def update(self, sample: float) -> float:
        """Fold one sample in; returns the new estimate."""
        if self.value is None:
            self.value = float(sample)
        else:
            self.value += self.alpha * (float(sample) - self.value)
        return self.value

    def capture(self) -> dict[str, Any]:
        """The estimator as a ``repro.state`` snapshot writes it."""
        return {"alpha": self.alpha, "value": self.value}

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture` (a ``samples`` count in older
        snapshots is ignored)."""
        self.alpha, self.value = doc["alpha"], doc["value"]


@dataclass(frozen=True)
class StreamDrift:
    """One stream whose observed rate left its published rate behind.

    Attributes:
        stream: The drifting stream.
        published: Rate the planners currently price with.
        observed: The EWMA estimate from runtime observations.
    """

    stream: str
    published: float
    observed: float

    @property
    def relative_change(self) -> float:
        """``|observed - published| / published``."""
        if self.published == 0.0:  # pragma: no cover - specs forbid rate 0
            return float("inf")
        return abs(self.observed - self.published) / self.published


#: Relative change (``|ewma - published| / published``) that counts as
#: a drift breach.
DRIFT_THRESHOLD = 0.2


class StatsMonitor:
    """Observes runtime stream rates and publishes on drift (a relative
    change of :data:`DRIFT_THRESHOLD` or more).

    Args:
        rates: The shared rate model publications are folded into (its
            ``version`` bump is what downstream epoch caches watch).
        alpha: EWMA smoothing factor for every estimator.
        hysteresis_ticks: Consecutive breaching :meth:`maybe_publish`
            checks required before a stream's drift is published --
            a one-tick spike decays in the EWMA instead of churning
            the statistics epoch.
        publish_cooldown: Minimum ticks between two publications.

    The monitor counts its publications (``publications``) and the
    drifts they swapped into the rate model (``streams_published``).
    """

    def __init__(
        self,
        rates: RateModel,
        alpha: float = 0.3,
        hysteresis_ticks: int = 2,
        publish_cooldown: float = 5.0,
    ) -> None:
        if hysteresis_ticks < 1:
            raise ValueError("hysteresis_ticks must be >= 1")
        if publish_cooldown < 0:
            raise ValueError("publish_cooldown must be non-negative")
        self.rates = rates
        self.hysteresis_ticks = hysteresis_ticks
        self.publish_cooldown = publish_cooldown
        self._estimators = {
            name: EwmaEstimator(alpha, initial=spec.rate)
            for name, spec in rates.streams.items()
        }
        self._published = {name: spec.rate for name, spec in rates.streams.items()}
        self._breaches: dict[str, int] = {name: 0 for name in self._estimators}
        # Breaching streams at the last check; those whose drift moved since.
        self._breaching: dict[str, StreamDrift] = {}
        self._moved: set[str] = set(self._estimators)
        self._last_publish: float | None = None
        self.publications = 0
        self.streams_published = 0
        self.revision = 0  # moves with every change of what capture() writes

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe_rate(self, stream: str, rate: float) -> float:
        """Feed one measured rate sample for a base stream."""
        estimator = self._estimators.get(stream)
        if estimator is None:
            raise UnknownStreamError(f"unknown stream {stream!r}")
        if rate < 0:
            raise ObservationError(f"negative rate sample for {stream!r}: {rate}")
        before = estimator.value
        if estimator.update(rate) != before:
            self.revision += 1
            self._moved.add(stream)
        return estimator.value

    def observe_rates(self, samples: Mapping[str, float]) -> None:
        """Feed one sample per stream (e.g. a per-tick rate snapshot)."""
        for stream, rate in samples.items():
            self.observe_rate(stream, rate)

    def _drift(self, name: str) -> StreamDrift | None:
        """The stream's drift when past the threshold (pre-hysteresis)."""
        drift = StreamDrift(name, self._published[name], self._estimators[name].value)
        return drift if drift.relative_change >= DRIFT_THRESHOLD else None

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def maybe_publish(self, now: float) -> list[StreamDrift]:
        """Run one drift check; publish if hysteresis and cooldown allow.

        Every call advances the per-stream hysteresis counters (breach
        streaks grow, recovered streams reset), so call it once per
        control-loop tick.  On publication the drifted streams' EWMA
        estimates are swapped into the rate model (other streams keep
        their published rates) and the published drifts are returned;
        otherwise an empty list.  Only the streams whose estimate or
        published rate moved since the last check are re-derived.
        """
        breaching = self._breaching
        for name in self._moved:
            breaching.pop(name, None)
            if (drift := self._drift(name)) is not None:
                breaching[name] = drift
        self._moved.clear()
        # A publication below follows a streak that grew here.
        for name, streak in self._breaches.items():
            self._breaches[name] = streak + 1 if name in breaching else 0
            self.revision += self._breaches[name] != streak

        if self._last_publish is not None:
            if now - self._last_publish < self.publish_cooldown:
                return []
        firing = [
            drift
            for name, drift in sorted(breaching.items())
            if self._breaches[name] >= self.hysteresis_ticks
        ]
        if not firing:
            return []

        current = self.rates.streams
        updated = dict(current)
        for drift in firing:
            spec = current[drift.stream]
            updated[drift.stream] = StreamSpec(
                spec.name, spec.source, max(drift.observed, 1e-12)
            )
        if not self.rates.update_streams(updated):  # pragma: no cover - defensive
            return []
        for drift in firing:
            self._published[drift.stream] = drift.observed
            self._breaches[drift.stream] = 0
            self._moved.add(drift.stream)
        self._last_publish = now
        self.publications += 1
        self.streams_published += len(firing)
        return firing

    # ------------------------------------------------------------------
    # Snapshot section
    # ------------------------------------------------------------------
    def capture(self) -> dict[str, Any]:
        """The monitor's part of the adaptivity section: estimators,
        published rates, breach streaks and the publication counts."""
        return {
            "estimators": [
                [name, est.capture()] for name, est in self._estimators.items()
            ],
            "published": dict(self._published),
            "breaches": dict(self._breaches),
            "last_publish": self._last_publish,
            "publications": self.publications,
            "streams_published": self.streams_published,
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into a pristine monitor (an
        ``events`` log in older snapshots is counted, a ``samples_total``
        ignored)."""

        def estimator(doc: dict[str, Any]) -> EwmaEstimator:
            revived = EwmaEstimator()
            revived.restore(doc)
            return revived

        self._estimators = {name: estimator(e) for name, e in doc["estimators"]}
        self._moved = set(self._estimators)
        self._published = dict(doc["published"])
        self._breaches = dict(doc["breaches"])
        self._last_publish = doc["last_publish"]
        events = doc.get("events", ())
        self.publications = doc.get("publications", len(events))
        self.streams_published = doc.get(
            "streams_published", sum(len(ev["drifts"]) for ev in events)
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Counters for reports and the adapt CLI."""
        return {
            "streams_monitored": len(self._estimators),
            "publications": self.publications,
            "drifting_now": sorted(filter(self._drift, self._estimators)),
        }

