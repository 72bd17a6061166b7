"""The eager drift check the incremental one is checked against.

:meth:`EagerStatsMonitor.maybe_publish` is
:meth:`repro.adaptive.stats.StatsMonitor.maybe_publish` as it stood
before the monitor kept its breaching streams between checks: every
check builds a :class:`StreamDrift` for every stream from the current
estimates (:meth:`drifted`).  The method bodies are unedited.
"""

from __future__ import annotations

from repro.adaptive.stats import DRIFT_THRESHOLD, StatsMonitor, StreamDrift
from repro.query.stream import StreamSpec


class EagerStatsMonitor(StatsMonitor):
    def drifted(self) -> list[StreamDrift]:
        """Streams currently past the drift threshold (pre-hysteresis)."""
        out: list[StreamDrift] = []
        for name, estimator in self._estimators.items():
            drift = StreamDrift(
                stream=name,
                published=self._published[name],
                observed=estimator.value,  # type: ignore[arg-type]
            )
            if drift.relative_change >= DRIFT_THRESHOLD:
                out.append(drift)
        return out

    def maybe_publish(self, now: float) -> list[StreamDrift]:
        """Run one drift check; publish if hysteresis and cooldown allow.

        Every call advances the per-stream hysteresis counters (breach
        streaks grow, recovered streams reset), so call it once per
        control-loop tick.  On publication the drifted streams' EWMA
        estimates are swapped into the rate model (other streams keep
        their published rates) and the published drifts are returned;
        otherwise an empty list.
        """
        breaching = {d.stream: d for d in self.drifted()}
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
        self._last_publish = now
        self.publications += 1
        self.streams_published += len(firing)
        return firing
