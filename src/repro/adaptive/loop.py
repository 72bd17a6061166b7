"""The closed adaptivity loop: observe -> decide -> migrate, per tick.

:class:`AdaptivityLoop` is the piece that wires the adaptive subsystem
into :class:`~repro.service.service.StreamQueryService`.  Construction
follows the house pattern for optional layers (resilience, tracing,
fault injection): the service takes ``adaptivity=None`` by default and
builds a loop only when handed an :class:`AdaptivityConfig` -- with
``None`` no monitor, no instruments and no tick hook exist, and service
behavior is byte-identical to a build without the subsystem.

Each service tick the loop:

1. runs one drift check (:meth:`StatsMonitor.maybe_publish`) -- unless
   an injected stale-statistics window freezes the control plane's view;
   a publication bumps the shared rate model, re-prices the engine's
   live flows (``refresh_rates``) and fires the statistics epoch so
   cached plans die;
2. when statistics or topology changed since the last converged pass,
   re-evaluates every deployed query through the
   :class:`~repro.adaptive.policy.ReoptPolicy` (respecting a per-query
   migration cooldown);
3. executes approved migrations through the
   :class:`~repro.adaptive.migrate.Migrator`, bounded per tick, each
   atomic with rollback.

The loop keeps re-evaluating on subsequent ticks until a pass migrates
nothing (convergence), then goes quiet until the next epoch change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.adaptive.migrate import MigrationOutcome, Migrator
from repro.adaptive.policy import ReoptDecision, ReoptPolicy
from repro.adaptive.stats import StatsMonitor, StreamDrift
from repro.obs.tracer import incr, span


@dataclass(frozen=True)
class AdaptivityConfig:
    """Tuning knobs of the whole control loop.

    Attributes:
        alpha: EWMA smoothing factor of the statistics estimators.
        hysteresis_ticks: Consecutive breaching ticks before publishing.
        publish_cooldown: Minimum ticks between statistics publications.
        horizon: Unit times a migration's saving is amortized over.
            Larger horizons make migrations more eager (the saving has
            longer to pay the transfer back).
        min_relative_gain: A candidate must beat the current cost by
            this fraction before the amortization test even runs
            (decision hysteresis against estimate noise).
        bytes_per_tuple: Window-state tuple size (transfer pricing).
        max_migrations_per_tick: Migration budget per service tick.
        query_cooldown: Ticks a migrated (or aborted) query is left
            alone before being reconsidered.

    The drift threshold is :class:`~repro.adaptive.stats.StatsMonitor`'s
    default; the cutover's drain time and transfer speed are
    :class:`~repro.adaptive.migrate.Migrator`'s, and every migration
    that moves an operator replays the cutover protocol.
    """

    alpha: float = 0.3
    hysteresis_ticks: int = 2
    publish_cooldown: float = 5.0
    horizon: float = 20.0
    min_relative_gain: float = 0.05
    bytes_per_tuple: float = 64.0
    max_migrations_per_tick: int = 2
    query_cooldown: float = 10.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.min_relative_gain < 0:
            raise ValueError("min_relative_gain must be non-negative")
        if self.bytes_per_tuple <= 0:
            raise ValueError("bytes_per_tuple must be positive")


@dataclass
class AdaptiveTickReport:
    """What one adaptivity step observed and did (``drift``: the streams
    its drift check published, if any)."""

    time: float
    drift: list[StreamDrift] = field(default_factory=list)
    evaluated: int = 0
    decisions: list[ReoptDecision] = field(default_factory=list)
    migrations: list[MigrationOutcome] = field(default_factory=list)

    @property
    def committed(self) -> list[MigrationOutcome]:
        """Migrations that actually swapped deployments."""
        return [m for m in self.migrations if m.committed]


class AdaptivityLoop:
    """Owns the monitor, policy and migrator for one service.

    Built by :class:`~repro.service.service.StreamQueryService` when an
    :class:`AdaptivityConfig` is passed; :meth:`bind` attaches it to the
    service's rate model, optimizer, fault injector and metric registry.
    """

    def __init__(self, config: AdaptivityConfig) -> None:
        self.config = config
        self.monitor: StatsMonitor | None = None
        self.policy: ReoptPolicy | None = None
        self.migrator: Migrator | None = None
        # Of the migrations run, as summary() and the snapshot name them.
        self.totals = dict.fromkeys(
            ("migrations_committed", "migrations_aborted", "operators_moved",
             "state_bytes_moved", "cost_saving"),
            0,
        )
        self._last_migration: dict[str, float] = {}
        self._dirty = False
        # Queries whose last migration rolled back: each is evaluated
        # again once its cooldown ends.
        self._aborted: set[str] = set()
        self._seen_topology = 0
        self._changes = 0  # see revision
        self._instruments: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def bind(self, service) -> None:
        """Attach to a service (called from the service constructor)."""
        cfg = self.config
        self.monitor = StatsMonitor(
            service.rates,
            alpha=cfg.alpha,
            hysteresis_ticks=cfg.hysteresis_ticks,
            publish_cooldown=cfg.publish_cooldown,
        )
        self.policy = ReoptPolicy(cfg, service.optimizer, service.rates)
        self.migrator = Migrator(service.network)
        self._seen_topology = service.topology_epoch
        reg = service.registry
        reg.counter(
            "adaptive_drift_events_total",
            "Statistics publications triggered by observed drift.",
            lambda: self.monitor.publications,
        )
        reg.counter(
            "adaptive_streams_published_total",
            "Streams whose rate was re-published on drift.",
            lambda: self.monitor.streams_published,
        )
        reg.counter(
            "adaptive_reopt_evaluations_total",
            "Deployed queries evaluated by the re-optimization policy.",
            lambda: self.policy.evaluations,
        )
        for key, name, help in (
            ("migrations_committed", "adaptive_migrations_total", "Migrations committed."),
            ("migrations_aborted", "adaptive_migration_aborts_total",
             "Migrations aborted (incomplete cutover or rolled back)."),
            ("operators_moved", "adaptive_operators_moved_total",
             "Operators that changed nodes in committed migrations."),
            ("state_bytes_moved", "adaptive_state_bytes_total",
             "Window-state bytes shipped by committed migrations."),
        ):
            reg.counter(name, help, lambda key=key: self.totals[key])
        self._instruments = {
            "saving": reg.gauge(
                "adaptive_cost_saving",
                "Cost/unit-time saved by the most recent committed migration.",
            ),
            "cutover_seconds": reg.histogram(
                "adaptive_cutover_seconds",
                "Virtual duration of committed cutovers.",
            ),
        }

    # ------------------------------------------------------------------
    def observe_rates(self, samples) -> None:
        """Feed one rate sample per stream to the monitor."""
        assert self.monitor is not None, "loop is not bound to a service"
        self.monitor.observe_rates(samples)

    # ------------------------------------------------------------------
    def step(self, service, now: float) -> AdaptiveTickReport:
        """Run one observe -> decide -> migrate iteration.

        Called from ``StreamQueryService.tick``; safe to call directly
        in tests.
        """
        assert self.monitor is not None, "loop is not bound to a service"
        report = AdaptiveTickReport(time=now)
        with span("adaptive_tick") as tick_span:
            if not service.faults.statistics_frozen(now):
                report.drift = self.monitor.maybe_publish(now)
                if report.drift:
                    self._dirty = True
                    tick_span.incr("drift_streams", len(report.drift))
                    # Live flows now ship at the published rates; the
                    # epoch bump kills stale cached plans.
                    service.engine.refresh_rates(now)
                    service._refresh_epochs()
            if service.topology_epoch != self._seen_topology:
                self._seen_topology = service.topology_epoch
                self._dirty = True
            if self._dirty or self._retry_due(now):
                self._reoptimize(service, now, report)
                self._dirty = bool(report.committed)
                self._changes += 1
        return report

    def _retry_due(self, now: float) -> bool:
        """Whether a rolled-back query's cooldown has ended."""
        cooldown = self.config.query_cooldown
        return any(
            now - self._last_migration[name] >= cooldown for name in self._aborted
        )

    def _reoptimize(self, service, now: float, report: AdaptiveTickReport) -> None:
        assert self.policy is not None and self.migrator is not None
        cfg = self.config
        state = service.engine.state
        live = {d.query.name for d in state.deployments}
        self._aborted &= live
        self._last_migration = {
            name: at for name, at in self._last_migration.items() if name in live
        }
        for deployment in list(state.deployments):
            name = deployment.query.name
            last = self._last_migration.get(name)
            if last is not None and now - last < cfg.query_cooldown:
                continue
            self._aborted.discard(name)
            service.before_plan(deployment.query)  # the candidate is a plan too
            with span("adaptive_evaluate", query=name) as ev_span:
                decision = self.policy.evaluate(
                    state, deployment, service.network.cost_matrix()
                )
                ev_span.tag(migrate=decision.migrate)
            report.evaluated += 1
            report.decisions.append(decision)
            if not decision.migrate:
                continue
            if len(report.migrations) >= cfg.max_migrations_per_tick:
                decision.migrate = False
                decision.reason += " (deferred: per-tick migration budget spent)"
                continue
            assert decision.candidate is not None and decision.diff is not None
            with span("adaptive_migrate", query=name) as mig_span:
                outcome = self.migrator.execute(
                    service.engine,
                    deployment,
                    decision.candidate,
                    decision.diff,
                    ads=service.ads,
                    now=now,
                )
                mig_span.tag(committed=outcome.committed)
            report.migrations.append(outcome)
            # Cooldown applies to aborts too: a candidate that failed to
            # install will likely fail an immediate retry, so it is
            # retried when the cooldown ends.
            self._last_migration[name] = now
            if outcome.committed:
                totals = self.totals
                totals["migrations_committed"] += 1
                totals["operators_moved"] += outcome.operators_moved
                totals["state_bytes_moved"] += outcome.bytes_moved
                totals["cost_saving"] += outcome.old_cost - outcome.new_cost
                self._instruments["saving"].set(outcome.old_cost - outcome.new_cost)
                if outcome.timeline is not None:
                    self._instruments["cutover_seconds"].observe(
                        outcome.timeline.duration
                    )
                incr("migrations_committed")  # on the adaptive_tick span
            else:
                self._aborted.add(name)
                self.totals["migrations_aborted"] += 1
                incr("migrations_aborted")

    # ------------------------------------------------------------------
    @property
    def revision(self) -> tuple:
        """Moves with the monitor's revision and with every re-evaluation
        pass: no other part of a step moves what :meth:`capture` writes."""
        return self._changes, self.monitor.revision

    def capture(self) -> dict[str, Any]:
        """The loop's section of a ``repro.state`` snapshot: migration
        cooldowns, the pending re-evaluation flag, the rolled-back
        queries awaiting a retry, the migration totals and the monitor."""
        assert self.monitor is not None and self.policy is not None
        return {
            "last_migration": dict(self._last_migration),
            "dirty": self._dirty,
            "aborted": sorted(self._aborted),
            "seen_topology": self._seen_topology,
            "evaluations": self.policy.evaluations,
            "totals": dict(self.totals),
            "monitor": self.monitor.capture(),
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into a pristine bound loop."""
        assert self.monitor is not None and self.policy is not None
        self._last_migration = dict(doc["last_migration"])
        self._dirty = doc["dirty"]
        self._aborted = set(doc.get("aborted", ()))  # absent before retries
        self._seen_topology = doc["seen_topology"]
        self.policy.evaluations = doc["evaluations"]
        self.totals.update(doc.get("totals", {}))  # absent from older files
        self.monitor.restore(doc["monitor"])

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Roll-up for replay reports and the adapt CLI."""
        assert self.monitor is not None and self.policy is not None
        return {
            "monitor": self.monitor.summary(),
            "evaluations": self.policy.evaluations,
            **self.totals,
        }
