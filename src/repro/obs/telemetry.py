"""The telemetry pipeline: scrape -> evaluate -> record, every tick.

:class:`Telemetry` is the opt-in glue between the control planes and the
observability primitives in this package.  Pass a
:class:`TelemetryConfig` (or a prebuilt :class:`Telemetry`) as the
``telemetry=`` argument of :class:`~repro.service.service.StreamQueryService`
or :class:`~repro.fleet.controller.FleetController` and every tick:

1. the :class:`~repro.obs.timeseries.TelemetryScraper` samples all bound
   metric registries into the :class:`~repro.obs.timeseries.TimeSeriesStore`
   (service/shard/fleet/tenant/resilience/adaptive instruments alike),
   re-reading only the instruments touched since the last scrape;
2. the :class:`~repro.obs.rules.RulesEngine` evaluates its recording and
   alerting rules over the fresh samples;
3. the :class:`~repro.obs.flight.FlightRecorder` logs the tick (and any
   new hops of the causal tracer installed with
   :func:`~repro.obs.tracer.causal_tracing`), and freezes a debug
   bundle whenever an alert transitions to FIRING or a circuit breaker
   opens.

The whole pipeline follows the repo's opt-in-layer contract
(``resilience=None`` / ``adaptivity=None`` / no tracer installed): with
``telemetry=None`` -- the default -- no scraper, store, rules or hooks
exist and service/fleet behavior is byte-identical to before this
module existed.  The pipeline itself only *reads* instruments and never
touches service state, so behavior with telemetry on differs from off
only by the envelope it produces.

:meth:`Telemetry.envelope` exports everything as one ``repro.telemetry``
JSON document -- the interchange format ``repro dash`` renders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.obs.flight import FlightRecorder
from repro.obs.rules import RulesEngine, default_rule_pack
from repro.obs.timeseries import TelemetryScraper, TimeSeriesStore, scoped_name
from repro.obs.tracer import current_causal

ENVELOPE_KIND = "repro.telemetry"
ENVELOPE_VERSION = 1

#: Counter whose increase means a circuit breaker opened somewhere.
_BREAKER_METRIC = "resilience_breaker_opens_total"


@dataclass
class TelemetryConfig:
    """Tuning for one :class:`Telemetry` pipeline.

    Attributes:
        cadence: Minimum ticks between scrapes (1.0 = every tick).
        store_capacity: Ring-buffer samples kept per series.

    Every pipeline installs :func:`~repro.obs.rules.default_rule_pack`
    per bound scope, drops wall-clock series (so envelopes are
    seed-deterministic), and freezes a debug bundle whenever an alert
    starts firing or a breaker opens; the flight recorder keeps its
    default capacities.
    """

    cadence: float = 1.0
    store_capacity: int = 512


class Telemetry:
    """One telemetry pipeline bound to a service or a fleet.

    Build it standalone (then ``bind_service`` / ``bind_fleet``
    yourself) or let the service/fleet constructor do it by passing a
    :class:`TelemetryConfig` as ``telemetry=``.
    """

    def __init__(self, config: TelemetryConfig | None = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.store = TimeSeriesStore(capacity=self.config.store_capacity)
        self.scraper = TelemetryScraper(self.store, cadence=self.config.cadence)
        self.recorder = FlightRecorder()
        self.engine = RulesEngine(self.store)
        # Causal hops land under the first bound service's scope; one
        # harvest cursor per causal tracer seen installed.
        self._hop_scope: str | None = None
        self._hop_cursors: dict[Any, int] = {}
        self._service_registries: dict[str, Any] = {}  # scope -> registry
        self._breaker_totals: dict[str, float] = {}
        self._breaker_seen = -1  # the store's change clock at the last check

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind_service(self, service: Any, scope: str = "service") -> None:
        """Attach one :class:`StreamQueryService`'s instruments.

        Registers the service registry for scraping and installs the
        default rule pack for the scope.  The first service bound names
        the scope installed causal hops are recorded under.
        """
        if self._hop_scope is None:
            self._hop_scope = scope
        self._service_registries[scope] = service.registry
        self.scraper.register(scope, service.registry)
        for rule in default_rule_pack([scope]):
            self.engine.add(rule)

    def bind_fleet(self, fleet: Any) -> None:
        """Attach a whole :class:`FleetController`.

        The fleet registry scrapes under ``fleet``, shard ``i`` under
        ``shard<i>``.
        """
        self.scraper.register("fleet", fleet.registry)
        for sid, shard in enumerate(fleet.shards):
            self.bind_service(shard, scope=f"shard{sid}")

    # ------------------------------------------------------------------
    # Tick hooks (called by the service/fleet at end of tick)
    # ------------------------------------------------------------------
    def on_service_tick(self, service: Any, report: Any) -> None:
        """Observe one service tick (scrape + rules + recorder)."""
        now = report.time
        self.recorder.record_tick("service", now, report)
        self._observe(now)

    def on_fleet_tick(self, fleet: Any, report: Any) -> None:
        """Observe one fleet tick (per-shard reports + scrape + rules)."""
        now = report.time
        for sid, shard_report in enumerate(report.shard_reports):
            self.recorder.record_tick(f"shard{sid}", now, shard_report)
        self._observe(now)

    def observe(self, now: float, force: bool = False) -> list[dict[str, Any]]:
        """Manually drive one observation (for unbound/ad-hoc use)."""
        return self._observe(now, force=force)

    def _observe(self, now: float, force: bool = False) -> list[dict[str, Any]]:
        if not force and not self.scraper.due(now):
            return []
        self.scraper.scrape(now, force=True)
        self._harvest_causal()
        transitions = self.engine.evaluate(now)
        for event in transitions:
            self.recorder.record_event(
                event.get("labels", {}).get("scope", ""), now, event
            )
        for scope, delta in self._breaker_opens():
            self.recorder.bundle(
                "breaker_open",
                now,
                scope=scope,
                context={"metric": _BREAKER_METRIC, "opens": delta},
            )
        for event in transitions:
            if event["to"] == "firing":
                self.recorder.bundle(
                    f"alert:{event['rule']}",
                    now,
                    scope=event.get("labels", {}).get("scope", ""),
                    context={
                        "rule": event["rule"],
                        "severity": event["severity"],
                        "value": event["value"],
                    },
                )
        return transitions

    def _harvest_causal(self) -> None:
        tracer = current_causal()
        if tracer is None or self._hop_scope is None:
            return
        hops = tracer.hops
        cursor = self._hop_cursors.get(tracer, 0)
        if len(hops) > cursor:
            self.recorder.record_hops(self._hop_scope, hops[cursor:])
            self._hop_cursors[tracer] = len(hops)

    def restored(self) -> None:
        """The bound planes were just restored from a snapshot: the
        breaker opens their counters read then were bundled by the
        process that saw them, so only later opens freeze a bundle."""
        for scope, registry in self._service_registries.items():
            opens = registry.get(_BREAKER_METRIC)
            if opens is not None:
                self._breaker_totals[scope] = opens.value
        self._breaker_seen = -1

    def _breaker_opens(self) -> list[tuple[str, float]]:
        """Scopes whose breaker-open counter grew since the last scrape."""
        opened: list[tuple[str, float]] = []
        seen, self._breaker_seen = self._breaker_seen, self.store.changes
        for scope in self.scraper.scopes():
            series = scoped_name(scope, _BREAKER_METRIC)
            if not self.store.moved(series, seen):
                continue
            value = self.store.last(series)
            if value is None:
                continue
            previous = self._breaker_totals.get(scope, 0.0)
            if value > previous:
                opened.append((scope, value - previous))
            self._breaker_totals[scope] = value
        return opened

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def alerts(self) -> list[dict[str, Any]]:
        """Snapshot of every alert rule (firing first, then by name)."""
        snaps = [r.snapshot() for r in self.engine.alerts]
        return sorted(
            snaps, key=lambda s: (s["state"] != "firing", s["name"])
        )

    def envelope(self) -> dict[str, Any]:
        """The full ``repro.telemetry`` JSON document.

        Deterministic for a fixed seed + scenario (series sorted by
        name, rules in declaration order, no wall clock anywhere).
        """
        return {
            "kind": ENVELOPE_KIND,
            "version": ENVELOPE_VERSION,
            "scraper": self.scraper.summary(),
            "series": self.store.to_dict(),
            "rules": self.engine.snapshot(),
            "alerts": self.alerts(),
            "flight": self.recorder.snapshot(),
        }

    def capture(self) -> None:
        """Telemetry has no section in a ``repro.state`` snapshot, on
        purpose: it is observability output, not decision state.  After
        a recovery the store starts empty and is scraped from the
        restored planes: every counter reads a total its owner's section
        restored (the uncrashed run's), except the durability counters
        in :data:`~repro.obs.timeseries.PROCESS_SERIES`, which count
        this process's journal work; gauges are set again by the next
        tick and histograms start empty.  Rule and alert state restart
        from inactive, and the flight recorder's frozen bundles are
        already on disk under the state directory."""
        return None


def ensure_telemetry(
    telemetry: "Telemetry | TelemetryConfig | None",
) -> Telemetry | None:
    """Normalize a ``telemetry=`` constructor argument.

    ``None`` stays ``None`` (the layer stays off); a config is wrapped
    in a fresh pipeline; a pipeline passes through (letting one
    pipeline watch several control planes).
    """
    if telemetry is None:
        return None
    if isinstance(telemetry, Telemetry):
        return telemetry
    if isinstance(telemetry, TelemetryConfig):
        return Telemetry(telemetry)
    raise TypeError(
        f"telemetry= expects TelemetryConfig, Telemetry or None, "
        f"got {type(telemetry).__name__}"
    )


def _list_of(value: Any, kind: type | tuple[type, ...]) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def envelope_from_json(doc: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a loaded ``repro.telemetry`` document (for ``repro dash``).

    Checks the kind and the shape of every field the terminal, HTML and
    CSV renderers read, so a malformed file raises :class:`ValueError`
    here instead of a ``TypeError`` mid-render.
    """
    kind = doc.get("kind") if isinstance(doc, Mapping) else None
    if kind != ENVELOPE_KIND:
        raise ValueError(f"not a telemetry envelope: kind={kind!r}")
    series, scraper = doc.get("series", {}), doc.get("scraper", {})
    alerts, flight = doc.get("alerts", []), doc.get("flight", {})
    if not isinstance(series, Mapping):
        raise ValueError("series is not an object")
    for name, points in series.items():
        if not _list_of(points, list) or not all(
            len(p) == 2 and _list_of(p, (int, float)) for p in points
        ):
            raise ValueError(f"series {name!r} is not a list of [time, value] pairs")
    if not (isinstance(scraper, Mapping) and _list_of(scraper.get("scopes", []), str)):
        raise ValueError("scraper is not an object with a list of scopes")
    fields = ("state", "severity", "name")
    if not _list_of(alerts, Mapping) or not all(
        _list_of([a.get(key, "") for key in fields], str) for a in alerts
    ):
        raise ValueError("alerts is not a list of alert objects")
    bundles = flight.get("bundles", []) if isinstance(flight, Mapping) else None
    if not _list_of(bundles, Mapping) or not all(
        _list_of(b.get("trace_ids", []), str) and isinstance(b.get("entries", []), list)
        for b in bundles
    ):
        raise ValueError("flight is not an object with a list of bundles")
    return dict(doc)
