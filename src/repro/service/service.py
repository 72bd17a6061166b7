"""The query lifecycle service: a long-running control plane.

:class:`StreamQueryService` wraps any :class:`~repro.core.optimizer.Optimizer`
and manages the full lifecycle of a churning query population -- submit,
plan, deploy, retire -- against one shared
:class:`~repro.query.deployment.DeploymentState`,
:class:`~repro.hierarchy.hierarchy.Hierarchy` and
:class:`~repro.hierarchy.advertisements.AdvertisementIndex`.  It is the
entry point that survives query churn: individual queries come and go,
the service (and the operator/advertisement substrate they share) stays.

Three mechanisms make it cheap under heavy traffic:

* **Plan memoization** -- optimizer output is cached per canonical query
  fingerprint (:mod:`repro.service.fingerprint`), so resubmitting an
  identical or source-order-permuted query skips optimization entirely
  and re-binds the cached plan to the new submission.
* **Epoch-based invalidation** -- the cache key carries a *statistics
  epoch* and a *topology epoch*.  The service watches
  :attr:`repro.core.cost.RateModel.version` and
  :attr:`repro.network.graph.Network.version` and bumps the matching
  epoch when either changes (rate re-estimation, link updates, node
  failure), which atomically invalidates every stale plan.
* **Admission control** -- a concurrent-deployment budget with a FIFO
  submission queue (:mod:`repro.service.admission`) applies backpressure
  instead of failing, and rejects gracefully with a typed decision when
  the queue itself is bounded.

Service-level metrics (cache hit rate, planning latency, queue depth,
admitted/rejected counts) are instruments under ``service_*`` names in
the engine's :class:`~repro.obs.metrics.MetricRegistry`.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.adaptive.loop import AdaptivityConfig, AdaptivityLoop
from repro.adaptive.migrate import MigrationOutcome
from repro.commands import command, next_tick_time
from repro.core.cost import RateModel
from repro.core.optimizer import Optimizer
from repro.errors import (
    HierarchyError,
    InfeasiblePlacementError,
    PlanningError,
    UnknownQueryError,
)
from repro.hierarchy.advertisements import AdvertisementIndex
from repro.hierarchy.hierarchy import Hierarchy
from repro.network.graph import Network
from repro.obs.tracer import count, span
from repro.query.deployment import Deployment
from repro.query.query import Query
from repro.resilience.degradation import ResilienceConfig, ResilientControl
from repro.resilience.faults import NULL_FAULTS
from repro.runtime.engine import FlowEngine
from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionStatus,
)
from repro.service.cache import CachedPlan, PlanCache
from repro.service.fingerprint import query_fingerprint
from repro.workload.generator import Workload


@dataclass(frozen=True)
class SubmitEvent:
    """One arrival in a workload trace.

    Attributes:
        time: Tick at which the query is submitted.
        query: The query itself.
        lifetime: Ticks the query stays deployed (``None`` = forever).
        tenant: Tenant the query is submitted for, read by a fleet's
            :meth:`~repro.fleet.controller.FleetController.replay`
            (``None`` = untenanted; a service has no tenants).
    """

    time: float
    query: Query
    lifetime: float | None = None
    tenant: str | None = None


@dataclass
class TickReport:
    """What one service tick did; ``migrations`` holds every outcome of
    the adaptivity step, ``migrated`` names the committed ones."""

    time: float
    deployed: list[str] = field(default_factory=list)
    retired: list[str] = field(default_factory=list)
    parked: list[str] = field(default_factory=list)
    migrated: list[str] = field(default_factory=list)
    migrations: list[MigrationOutcome] = field(default_factory=list)
    drift_streams: list[str] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)


@dataclass
class ServiceFailureReport:
    """Outcome of routing a node failure through the service.

    Attributes:
        node: The failed node.
        retired: Queries undeployed because they touched the node.
        resubmitted: Retired queries re-admitted through the service
            (deployed or queued, per their decision).
        lost: Retired queries that could not be resubmitted (their sink
            or a source stream died with the node).
        decisions: Admission decisions of the resubmissions.
    """

    node: int
    retired: list[str] = field(default_factory=list)
    resubmitted: list[str] = field(default_factory=list)
    lost: list[str] = field(default_factory=list)
    decisions: list[AdmissionDecision] = field(default_factory=list)


@dataclass
class ReplayReport:
    """Summary of replaying a trace through the service."""

    decisions: list[AdmissionDecision]
    ticks: int
    wall_seconds: float
    summary: dict = field(default_factory=dict)


class StreamQueryService:
    """Control-plane server for a churning multi-query workload.

    Args:
        optimizer: Any planner satisfying the
            :class:`~repro.core.optimizer.Optimizer` protocol.
        network: The physical network (its ``version`` drives the
            topology epoch).
        rates: Rate model (its ``version`` drives the statistics epoch).
        hierarchy: Optional hierarchy; required for
            :meth:`handle_node_failure`.
        ads: Optional shared advertisement index, kept in sync with the
            deployment state after every deploy/retire.
        admission: Admission controller (default: budget 16, unbounded
            queue).
        cache: Plan cache (default: 256-entry LRU).
        resilience: Optional :class:`ResilienceConfig` turning on the
            resilience layer (retries, circuit breakers, degradation
            ladder, parking, quarantine).  With ``None`` (the default)
            planning behaves exactly as before the layer existed.
        faults: Fault injector whose scripted events the service applies
            on :meth:`tick` (crashes, rejoins, outage/slow-down/stale
            windows).  Defaults to the no-op :data:`NULL_FAULTS`;
            passing a real injector implicitly enables the resilience
            layer with default tuning if ``resilience`` was omitted.
        adaptivity: Optional :class:`AdaptivityConfig` turning on
            closed-loop statistics monitoring, re-optimization and live
            operator migration: every :meth:`tick` runs one observe ->
            decide -> migrate step.  With ``None`` (the default) no
            monitor, instruments or hooks exist and behavior is
            byte-identical to before the subsystem existed (same
            contract as ``resilience``).
        telemetry: Optional :class:`~repro.obs.telemetry.TelemetryConfig`
            (or prebuilt :class:`~repro.obs.telemetry.Telemetry`)
            turning on continuous telemetry: every :meth:`tick` ends by
            scraping the metric registry into a time-series store,
            evaluating the alerting rules, and feeding the flight
            recorder.  With ``None`` (the default) no scraper, store or
            hook exists and behavior is byte-identical to before the
            subsystem existed (same contract as ``resilience`` /
            ``adaptivity``).
        durability: Optional :class:`~repro.durability.DurabilityConfig`
            turning on the durable control plane: every externally driven
            mutation is journaled to a write-ahead log before it
            executes, state snapshots land every ``snapshot_interval``
            ticks, and :func:`repro.durability.recover` can rebuild the
            service after a crash.  With ``None`` (the default) no
            journal, state directory or instruments exist and behavior
            is byte-identical to a build without the subsystem (same
            contract as the other optional layers).
        resources: Optional :class:`~repro.resources.ResourceConfig`
            turning on resource-aware placement: node capacities feed a
            utilization-bounded (or bi-criteria) planner constraint,
            every deployment passes a joint feasibility gate against
            the live ledger, queries with no feasible placement park
            until capacity recovers, and per-node ``resource_*`` utilization gauges
            land in the registry.  With ``None`` (the default) no
            ledger, gate or instruments exist; even when armed,
            all-unbounded capacities leave planning and admission
            byte-identical to a build without the subsystem.

    Instrumentation is not an argument: spans, op counts and causal
    message hops (the adaptivity loop's migration cutovers) reach
    whatever the caller installed around the run with
    :func:`~repro.obs.tracer.tracing`, :func:`~repro.perf.profiled` and
    :func:`~repro.obs.tracer.causal_tracing`.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        network: Network,
        rates: RateModel,
        hierarchy: Hierarchy | None = None,
        ads: AdvertisementIndex | None = None,
        admission: AdmissionController | None = None,
        cache: PlanCache | None = None,
        resilience: ResilienceConfig | None = None,
        faults=None,
        adaptivity: AdaptivityConfig | None = None,
        telemetry=None,
        durability=None,
        resources=None,
    ) -> None:
        self.optimizer = optimizer
        self.rates = rates
        self.hierarchy = hierarchy
        self.ads = ads
        self.engine = FlowEngine(network, rates)
        self.registry = self.engine.registry
        if ads is not None:
            # The hierarchical planners resolve sources through the ads
            # index; make sure every catalog stream is advertised.
            known = ads.base_streams()
            for name, spec in rates.streams.items():
                if name not in known:
                    ads.advertise_base(name, spec.source)
        self.admission = admission if admission is not None else AdmissionController()
        self.cache = cache if cache is not None else PlanCache()
        self.statistics_epoch = 0
        self.topology_epoch = 0
        self._rates_version = rates.version
        self._network_version = network.version
        self._expiry: dict[str, float] = {}
        # Ticks pop ``(expiry, seq, name)`` off a heap; seq order is
        # ``_expiry``'s, and a seq other than ``_expiry_seq[name]`` is stale.
        self._expiry_heap: list[tuple[float, int, str]] = []
        self._expiry_seq: dict[str, int] = {}
        self._next_seq = itertools.count()
        self._pending_lifetimes: dict[str, float | None] = {}
        self.submitted_total = 0
        self.deployed_total = 0
        self.retired_total = 0
        self.plans_computed = 0
        self.plans_examined = 0
        # Runs before every plan: a fleet imports the remote views here.
        self.before_plan: Callable[[Query], None] = lambda query: None

        reg = self.registry
        self._queue_gauge = reg.gauge(
            "service_queue_depth", "Queries waiting in the admission queue."
        )
        self._live_gauge = reg.gauge(
            "service_live_queries", "Queries currently deployed."
        )
        self._hit_rate_gauge = reg.gauge(
            "service_cache_hit_rate", "Plan-cache hit rate since startup."
        )
        reg.counter(
            "service_admitted_total",
            "Queries admitted (deployed or queued).",
            lambda: self.admission.admitted_total,
        )
        reg.counter(
            "service_rejected_total",
            "Queries rejected by admission control.",
            lambda: self.admission.rejected_total,
        )
        self._planning_hist = reg.histogram(
            "service_planning_seconds",
            "Wall-clock planning latency per plan() call (cache hits are 0).",
        )
        reg.counter("service_plan_cache_hits_total", "Plan-cache hits.", lambda: self.cache.hits)
        reg.counter(
            "service_plan_cache_misses_total",
            "Plan-cache misses (optimizer ran).",
            lambda: self.plans_computed,
        )
        reg.counter(
            "optimizer_plans_examined_total",
            "Nominal plan/placement combinations examined by the optimizer.",
            lambda: self.plans_examined,
        )
        self.admission.bind_instruments(reg)

        # Resilience layer.  Instruments and hooks exist only when the
        # layer is on, so default-configured services stay byte-identical.
        self.faults = faults if faults is not None else NULL_FAULTS
        self.resilience: ResilientControl | None = None
        if resilience is None and self.faults.enabled:
            resilience = ResilienceConfig()
        if resilience is not None:
            self.resilience = ResilientControl(resilience, self.faults)
            self.resilience.bind(self)

        # Adaptivity layer, same contract: the loop (monitor, policy,
        # migrator, adaptive_* instruments) exists only when asked for.
        self.adaptivity: AdaptivityLoop | None = None
        if adaptivity is not None:
            self.adaptivity = AdaptivityLoop(adaptivity)
            self.adaptivity.bind(self)

        # Telemetry layer, same contract again: the scraper, store and
        # rules engine exist only when asked for.
        from repro.obs.telemetry import ensure_telemetry

        self.telemetry = ensure_telemetry(telemetry)
        if self.telemetry is not None:
            self.telemetry.bind_service(self)

        # Resource layer, same contract: ledger, admission gate, parking lot
        # and the resource_* instruments exist only when asked for.  Built
        # here so that durability sees it among layers(), bound last.
        from repro.resources.manager import ensure_resources

        self.resources = ensure_resources(resources)

        # Durability layer, same contract: journal, snapshots and the
        # durability_* instruments exist only when asked for.
        from repro.durability import ensure_durability

        self.durability = ensure_durability(durability)
        self._in_command = False
        if self.durability is not None:
            self.durability.bind_service(self)
            if self.adaptivity is not None and self.adaptivity.migrator is not None:
                self.adaptivity.migrator.durability = self.durability

        if self.resources is not None:
            self.resources.bind_service(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> Network:
        """The physical network the service deploys onto."""
        return self.engine.network

    @property
    def clock(self) -> float:
        """Current service time (ticks)."""
        return self.engine.clock

    @property
    def live_queries(self) -> list[str]:
        """Names of currently deployed queries."""
        return [d.query.name for d in self.engine.state.deployments]

    def is_live(self, name: str) -> bool:
        """Whether a query of that name is currently deployed."""
        return self.engine.state.deployment(name) is not None

    def total_cost(self) -> float:
        """Instantaneous communication cost of everything deployed."""
        return self.engine.total_cost()

    def layers(self) -> list[tuple[str, Any]]:
        """The armed optional layers as ``(section name, layer)``, in the
        one order snapshots, recovery and replay summaries walk them.

        Every member has ``capture()`` / ``restore(doc)`` / ``summary()``.
        The fault injector rides with the resilience layer (a real
        injector arms it; the null one keeps no state).
        """
        named = (
            ("resilience", self.resilience),
            ("faults", self.faults if self.resilience is not None else None),
            ("adaptivity", self.adaptivity),
            ("resources", self.resources),
        )
        return [(name, layer) for name, layer in named if layer is not None]

    def capture(self) -> dict[str, Any]:
        """The service's own scalars in a ``repro.state`` snapshot: clock,
        epochs, the versions they were last read at, lifetimes, counters.
        Layers, plan cache and deployment state write their own sections
        (:func:`repro.durability.state.capture_service`)."""
        return {
            "clock": self.engine.clock,
            "statistics_epoch": self.statistics_epoch,
            "topology_epoch": self.topology_epoch,
            "rates_version_seen": self._rates_version,
            "network_version_seen": self._network_version,
            "priced_version": self.engine.priced_version,
            # ``[name, expiry]`` pairs: same-tick expiries retire in this order.
            "expiry": [[name, expiry] for name, expiry in self._expiry.items()],
            "pending_lifetimes": dict(self._pending_lifetimes),
            "counters": {
                "submitted_total": self.submitted_total,
                "deployed_total": self.deployed_total,
                "retired_total": self.retired_total,
                "plans_computed": self.plans_computed,
                "plans_examined": self.plans_examined,
            },
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into a pristine service."""
        self.engine.clock = doc["clock"]
        self.statistics_epoch = doc["statistics_epoch"]
        self.topology_epoch = doc["topology_epoch"]
        self._rates_version = doc["rates_version_seen"]
        self._network_version = doc["network_version_seen"]
        # Adopt the priced version the snapshot recorded (the caller
        # re-prices the restored flows), keeping epoch bookkeeping exact.
        self.engine._priced_version = doc["priced_version"]
        self._expiry = dict(doc["expiry"])  # pairs, or an older file's dict
        self._expiry_seq = {name: seq for seq, name in enumerate(self._expiry)}
        self._next_seq = itertools.count(len(self._expiry))
        self._rebuild_expiry_heap()
        self._pending_lifetimes = dict(doc["pending_lifetimes"])
        counters = doc["counters"]
        self.submitted_total = counters["submitted_total"]
        self.deployed_total = counters["deployed_total"]
        self.retired_total = counters["retired_total"]
        self.plans_computed = counters["plans_computed"]
        self.plans_examined = counters.get("plans_examined", 0)  # absent from older files

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def bump_statistics_epoch(self) -> int:
        """Invalidate plans cached under the old statistics; new epoch."""
        self.statistics_epoch += 1
        self.cache.evict_stale(self.statistics_epoch, self.topology_epoch)
        return self.statistics_epoch

    def bump_topology_epoch(self) -> int:
        """Invalidate plans cached under the old topology; new epoch."""
        self.topology_epoch += 1
        self.cache.evict_stale(self.statistics_epoch, self.topology_epoch)
        return self.topology_epoch

    def _refresh_epochs(self) -> None:
        if self.rates.version != self._rates_version:
            # During an injected stale-statistics window the control
            # plane must keep planning against what it last observed;
            # the epoch bump happens at the first refresh past the window.
            if not self.faults.statistics_frozen(self.clock):
                self._rates_version = self.rates.version
                self.bump_statistics_epoch()
        if self.network.version != self._network_version:
            self._network_version = self.network.version
            self.engine.refresh_network(self.clock)
            self.bump_topology_epoch()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @command("cmd_submit")
    def submit(
        self,
        query: Query,
        lifetime: float | None = None,
        time: float | None = None,
    ) -> AdmissionDecision:
        """Submit a query; deploy now, queue, or reject.

        Args:
            query: The query to run.
            lifetime: Ticks the query should stay deployed once admitted
                (``None`` = until explicitly retired).
            time: Service time of the submission (defaults to the
                current clock).

        Returns:
            The typed admission decision.
        """
        if time is not None:
            self.engine.clock = time
        with span("submit", query=query.name) as submit_span:
            self._refresh_epochs()
            self.submitted_total += 1

            decision = self._validate(query, lifetime)
            if decision is None:
                decision = self.admission.request(
                    query, self.engine.state.num_deployments, time=self.clock
                )
                if decision.status is AdmissionStatus.ADMITTED:
                    reason = self._deploy_or_park(query, lifetime)
                    if reason is not None:
                        decision = AdmissionDecision(
                            query=query.name,
                            status=AdmissionStatus.QUEUED,
                            reason=f"parked: {reason}",
                        )
                        submit_span.incr("parked")
                elif decision.status is AdmissionStatus.QUEUED:
                    self._pending_lifetimes[query.name] = lifetime
            submit_span.tag(decision=decision.status.value)
            self._record_gauges()
        self._mark(
            "admit",
            query=query.name,
            status=decision.status.value,
            reason=decision.reason,
        )
        return decision

    def _validate(self, query: Query, lifetime: float | None) -> AdmissionDecision | None:
        if self.is_live(query.name):
            taken = f"query {query.name!r} is already deployed"
        elif self.admission.is_queued(query.name):
            taken = f"query {query.name!r} is already queued"
        else:
            taken = None
        problem = submission_problem(self, query, lifetime, taken)
        return None if problem is None else self.admission.reject(query, problem)

    def _tick_end(self, report: TickReport) -> None:
        """Tail of a journaled tick: its boundary marker, then the
        snapshot cadence (snapshots are only cut between ticks)."""
        self.durability.marker(
            "tick_end",
            report.time,
            {
                "deployed": list(report.deployed),
                "retired": list(report.retired),
                "migrated": list(report.migrated),
            },
        )
        self.durability.maybe_snapshot(report.time)

    @command("cmd_tick", resolve_time=next_tick_time, tail=_tick_end)
    def tick(self, time: float | None = None) -> TickReport:
        """Advance the service one step.

        Retires queries whose lifetime expired, then drains the
        submission queue into freed capacity (FIFO, bounded by the
        controller's per-tick limit), then records the service gauges.
        """
        count("service_ticks")
        now = next_tick_time(self, time)
        self.engine.clock = now
        if self.resilience is not None:
            self.resilience.apply_due_faults(self, now)
            self.resilience.release_quarantined(self, now)
        self._refresh_epochs()
        report = TickReport(time=now)

        for name in self._pop_due(now):
            self._retire_live(name)
            report.retired.append(name)

        for query in self.admission.drain(self.engine.state.num_deployments, time=now):
            lifetime = self._pending_lifetimes.pop(query.name, None)
            problem = self.endpoint_problem(query)
            if problem is not None:  # an endpoint died while it waited
                self.admission.revoke(query, problem)
                report.rejected.append(query.name)
            elif self._deploy_or_park(query, lifetime) is None:
                report.deployed.append(query.name)
            else:
                report.parked.append(query.name)

        if self.resilience is not None:
            self.resilience.readmit_parked(self, report.deployed)
        if self.resources is not None:
            report.deployed.extend(self.resources.step(self, now))
        if self.adaptivity is not None:
            adaptive = self.adaptivity.step(self, now)
            report.drift_streams.extend(d.stream for d in adaptive.drift)
            report.migrations = adaptive.migrations
            report.migrated.extend(m.query for m in adaptive.committed)
        self._record_gauges()
        if self.telemetry is not None:
            self.telemetry.on_service_tick(self, report)
        return report

    @command("cmd_retire")
    def retire(self, name: str) -> bool:
        """Retire a query by name (deployed or still queued).

        Returns ``True`` if it was deployed, ``False`` if only queued
        (or parked by the resilience or resource layer).

        Raises:
            UnknownQueryError: The name is neither deployed, queued nor
                parked (also catchable as ``KeyError``).
        """
        if self.admission.withdraw(name):
            self._pending_lifetimes.pop(name, None)
            self._record_gauges()
            return False
        if self.resilience is not None and self.resilience.unpark(name):
            self._record_gauges()
            return False
        if self.resources is not None and self.resources.unpark(name):
            self._record_gauges()
            return False
        if not self.is_live(name):
            raise UnknownQueryError(
                f"query {name!r} is neither deployed nor queued"
            )
        self._retire_live(name)
        self._record_gauges()
        return True

    @command("cmd_node_failure")
    def handle_node_failure(self, node: int) -> ServiceFailureReport:
        """Route a node failure through retire/re-admit.

        Repairs the hierarchy (coordinator backups take over), bumps the
        topology epoch (cached placements may reference the dead node),
        retires every query with an operator or an endpoint there, and
        resubmits the survivors through normal admission (one whose sink
        or source died is lost) -- so a failure burst is subject to the
        same backpressure as any other load spike.

        Raises:
            HierarchyError: The service was built without a hierarchy
                (also catchable as ``ValueError``).
        """
        if self.hierarchy is None:
            raise HierarchyError("handle_node_failure requires a hierarchy")
        from repro.runtime.failover import fail_node

        with span("node_failure", node=node) as failure_span:
            failure = fail_node(self.hierarchy, node, engine=self.engine)
            report = ServiceFailureReport(node=node)
            self.bump_topology_epoch()

            # Undeploy every affected query before the single ads re-sync:
            # their operators on the dead node must all be gone first, or
            # the sync would try to advertise views at a node the hierarchy
            # no longer contains.
            affected: list[tuple[Query, float | None]] = []
            for name in failure.affected_queries:
                expiry = self._drop_expiry(name)
                remaining = None if expiry is None else max(1.0, expiry - self.clock)
                affected.append((self.engine.state.deployment(name).query, remaining))
                self.engine.undeploy(name, time=self.clock)
                self.retired_total += 1
                report.retired.append(name)
            if self.ads is not None:
                self.ads.sync_from_state(self.engine.state)

            for query, remaining in affected:
                if self.endpoint_problem(query) is not None:
                    report.lost.append(query.name)
                    continue
                decision = self.submit(query, lifetime=remaining)
                report.decisions.append(decision)
                if not decision.rejected:
                    report.resubmitted.append(query.name)
                else:  # pragma: no cover - bounded-queue configurations only
                    report.lost.append(query.name)
            failure_span.incr("queries_retired", len(report.retired))
            failure_span.incr("queries_resubmitted", len(report.resubmitted))
            failure_span.incr("queries_lost", len(report.lost))
            self._record_gauges()
        return report

    @command("cmd_rejoin")
    def rejoin_node(self, node: int) -> bool:
        """Re-admit a node into the hierarchy (recovery or end of
        quarantine).

        The node must still be a network member and not currently in
        the hierarchy.  Returns ``True`` when the hierarchy changed (the
        topology epoch is bumped so stale cached plans die and parked
        queries get retried).

        Raises:
            HierarchyError: The service was built without a hierarchy.
        """
        if self.hierarchy is None:
            raise HierarchyError("rejoin_node requires a hierarchy")
        if not self.network.has_node(node):
            return False
        from repro.hierarchy.maintenance import add_node

        try:
            # Seeded by the node id: any split the insertion triggers
            # is reproducible across same-plan chaos runs.
            add_node(self.hierarchy, node, seed=node)
        except ValueError:
            return False  # already a member
        self.bump_topology_epoch()
        return True

    @command("cmd_observe")
    def observe_rates(self, samples, time: float | None = None) -> None:
        """Feed dataplane rate samples to the adaptivity monitor.

        A journaled command (external input changes future planning
        decisions, so recovery must replay it).  A no-op without the
        adaptivity layer.
        """
        if time is not None:
            self.engine.clock = float(time)
        if self.adaptivity is not None:
            self.adaptivity.observe_rates(samples)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: Query) -> tuple[Deployment, bool]:
        """Plan a query through the cache; returns ``(deployment, hit)``.

        A hit re-binds the memoized plan/placement to this query object
        after revalidating it against the live deployment state (reused
        views must still exist); a failed revalidation is re-booked as a
        miss and re-planned.
        """
        self.before_plan(query)  # first: a hit's revalidation reads its imports
        self._refresh_epochs()
        fingerprint = query_fingerprint(query)
        key = self.cache.key(fingerprint, self.statistics_epoch, self.topology_epoch)
        with span("plan", query=query.name) as plan_span:
            entry = self.cache.get(key)
            if entry is not None:
                deployment = Deployment(
                    query=query,
                    plan=entry.plan,
                    placement=dict(entry.placement),
                    stats={
                        **entry.stats,
                        "plan_cache": "hit",
                        "fingerprint": fingerprint,
                    },
                )
                if not self._revalidate(deployment):
                    self.cache.demote(key)
                    plan_span.incr("cache_revalidation_failures")
                    entry = None
            if entry is not None:
                plan_span.tag(cache="hit")
                self._planning_hist.observe(0.0)
                return deployment, True
            start = _time.perf_counter()
            deployment = self.optimizer.plan(query, self.engine.state)
            elapsed = _time.perf_counter() - start
            self.plans_computed += 1
            deployment.stats = {
                **deployment.stats,
                "plan_cache": "miss",
                "fingerprint": fingerprint,
            }
            self.cache.put(
                key,
                CachedPlan(
                    plan=deployment.plan,
                    placement=dict(deployment.placement),
                    stats=dict(deployment.stats),
                ),
            )
            plan_span.tag(cache="miss")
            self.plans_examined += deployment.stats.get("plans_examined") or 0
            self._planning_hist.observe(elapsed)
        return deployment, False

    def endpoint_problem(self, query: Query) -> str | None:
        """Why ``query`` cannot be planned on the live hierarchy: its sink
        or a stream's source node has left it (``None``: it can be)."""
        if self.hierarchy is None:
            return None
        alive = self.hierarchy.subtree(self.hierarchy.root)
        if query.sink not in alive:
            return f"sink {query.sink} is not a live hierarchy node"
        for stream in query.sources:
            node = self.rates.source(stream)
            if node not in alive:
                return f"source node {node} of stream {stream!r} is not a live hierarchy node"
        return None

    def _revalidate(self, deployment: Deployment) -> bool:
        """Whether a (cached) plan still applies cleanly to live state."""
        for leaf in deployment.plan.leaves():
            node = deployment.placement[leaf]
            if leaf.is_base_stream:
                if self.rates.source(leaf.stream) != node:
                    return False
            elif self.engine.state.find_reusable(deployment.signature(leaf.view), node) is None:
                return False
        return True

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def replay(
        self,
        events: Iterable[SubmitEvent],
        drain: bool = True,
        max_ticks: int = 100_000,
    ) -> ReplayReport:
        """Replay a workload trace through the service.

        Submits each event at its tick (ticking the service through the
        gaps) and, when ``drain`` is set, keeps ticking afterwards until
        the submission queue is empty and every finite-lifetime query
        has retired.

        Returns:
            A :class:`ReplayReport` with every admission decision and a
            summary (admissions, cache hit rate, plans computed, ...).
        """
        decisions, ticks, wall = drive_trace(
            self,
            events,
            lambda event: self.submit(event.query, lifetime=event.lifetime),
            drain,
            max_ticks,
        )
        report = ReplayReport(
            decisions=decisions,
            ticks=ticks,
            wall_seconds=wall,
            summary={
                "submitted": len(decisions),
                "admitted": sum(1 for d in decisions if not d.rejected),
                "rejected": sum(1 for d in decisions if d.rejected),
                "deployed_total": self.deployed_total,
                "retired_total": self.retired_total,
                "cache_hits": self.cache.hits,
                "cache_misses": self.cache.misses,
                "cache_hit_rate": self.cache.hit_rate,
                "plans_computed": self.plans_computed,
                "final_cost": self.total_cost(),
                "final_live": self.engine.state.num_deployments,
            },
        )
        for name, layer in self.layers():
            report.summary[name] = layer.summary()
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _has_pending_work(self) -> bool:
        """Whether ticking on would still do something: a queued
        submission to drain or a finite lifetime to expire."""
        return self.admission.queue_depth > 0 or bool(self._expiry)

    def plan_feasible(self, query: Query) -> Deployment:
        """Plan ``query`` through the cache; with the resource layer on,
        under the live constraint (raising
        :class:`InfeasiblePlacementError` when nothing fits)."""
        if self.resources is not None:
            return self.resources.plan_feasible(self, query)
        deployment, _hit = self.plan(query)
        return deployment

    def _deploy(self, query: Query, lifetime: float | None) -> None:
        if self.resilience is not None:
            deployment = self.resilience.plan(self, query)
        else:
            deployment = self.plan_feasible(query)
        if self.resources is not None:
            deployment = self.resources.gate(self, query, deployment)
        self.engine.deploy(deployment, time=self.clock)
        if self.ads is not None:
            self.ads.sync_from_state(self.engine.state)
        if lifetime is not None:
            self._set_expiry(query.name, self.clock + lifetime)
        self.deployed_total += 1
        self._mark("deploy", query=query.name, lifetime=lifetime)

    def _deploy_or_park(self, query: Query, lifetime: float | None) -> str | None:
        """Deploy ``query``, or park it with the layer that owns the
        planning error; returns the park reason (``None`` = deployed).

        No feasible placement is the resource layer's to wait out, any
        other planning failure the resilience layer's; with the owning
        layer off the error reaches the caller.
        """
        try:
            self._deploy(query, lifetime)
        except PlanningError as exc:
            infeasible = isinstance(exc, InfeasiblePlacementError)
            owner = self.resources if infeasible else self.resilience
            if owner is None:
                raise
            reason = str(exc)
            owner.park(self, query, lifetime, reason)
            self._mark("park", query=query.name, reason=reason)
            return reason
        return None

    def _retire_live(self, name: str) -> None:
        self.engine.undeploy(name, time=self.clock)
        if self.ads is not None:
            self.ads.sync_from_state(self.engine.state)
        self._drop_expiry(name)
        self.retired_total += 1
        self._mark("retire", query=name)

    def _set_expiry(self, name: str, expiry: float) -> None:
        """End the lifetime of ``name``, a query being deployed, at
        ``expiry``."""
        self._expiry[name] = expiry
        self._expiry_seq[name] = seq = next(self._next_seq)
        heapq.heappush(self._expiry_heap, (expiry, seq, name))

    def _drop_expiry(self, name: str) -> float | None:
        """Forget ``name``'s lifetime, return its expiry (or ``None``);
        the heap is rebuilt once stale entries outnumber live ones."""
        self._expiry_seq.pop(name, None)
        expiry = self._expiry.pop(name, None)
        if len(self._expiry_heap) > 2 * len(self._expiry):
            self._rebuild_expiry_heap()
        return expiry

    def _rebuild_expiry_heap(self) -> None:
        heap = [(e, self._expiry_seq[n], n) for n, e in self._expiry.items()]
        heapq.heapify(heap)
        self._expiry_heap = heap

    def _pop_due(self, now: float) -> list[str]:
        """Pop every heap entry due by ``now`` and return the live ones'
        names in ``_expiry`` order: ``[n for n, e in _expiry.items() if
        e <= now]`` without walking the entries that are not due."""
        heap, seqs = self._expiry_heap, self._expiry_seq
        size, due = len(heap), []
        while heap and heap[0][0] <= now:
            _, seq, name = heapq.heappop(heap)
            if seqs.get(name) == seq:
                due.append((seq, name))
        count("expiry_entries_examined", size - len(heap))
        due.sort()
        return [name for _, name in due]

    def _mark(self, kind: str, **data) -> None:
        """Journal one marker at the current clock (nothing when the
        durability layer is off)."""
        if self.durability is not None:
            self.durability.marker(kind, self.clock, data)

    def _record_gauges(self) -> None:
        self._queue_gauge.set(float(self.admission.queue_depth))
        self._live_gauge.set(float(self.engine.state.num_deployments))
        self._hit_rate_gauge.set(self.cache.hit_rate)
        if self.resources is not None:
            self.resources.record_gauges(self)


def drive_trace(
    controller,
    events: Iterable[SubmitEvent],
    submit: Callable[[SubmitEvent], Any],
    drain: bool,
    max_ticks: int,
) -> tuple[list, int, float]:
    """The replay loop the service and the fleet share.

    Ticks ``controller`` one step at a time, hands each event to
    ``submit`` at its tick and, with ``drain``, keeps ticking while the
    controller ``_has_pending_work()``.  Returns ``(decisions, ticks,
    wall_seconds)``.
    """
    ordered = sorted(events, key=lambda e: e.time)
    decisions = []
    wall_start = _time.perf_counter()
    ticks = i = 0
    while ticks < max_ticks and (
        i < len(ordered) or (drain and controller._has_pending_work())
    ):
        controller.tick()
        ticks += 1
        while i < len(ordered) and ordered[i].time <= controller.clock:
            decisions.append(submit(ordered[i]))
            i += 1
    return decisions, ticks, _time.perf_counter() - wall_start


def submission_problem(
    service: StreamQueryService, query: Query, lifetime: float | None, taken: str | None
) -> str | None:
    """Why ``service`` would refuse ``query`` at the door (``None``: it
    would not) -- the checks a shard makes, which a tenant fleet's own
    front door makes the same way.

    Args:
        taken: Why the query's name is already in use (``None``: free).
    """
    if lifetime is not None and lifetime <= 0:
        return f"non-positive lifetime {lifetime}"
    if taken is not None:
        return taken
    unknown = [s for s in query.sources if s not in service.rates.streams]
    if unknown:
        return f"unknown streams: {unknown}"
    if not service.network.has_node(query.sink):
        return f"sink {query.sink} is not a network node"
    return service.endpoint_problem(query)


def churn_trace(
    workload: Workload | Sequence[Query],
    lifetime: float | None = 5.0,
    arrivals_per_tick: int = 2,
    repeats: int = 1,
) -> list[SubmitEvent]:
    """Build a short-lived-query trace from a workload.

    Queries arrive ``arrivals_per_tick`` at a time and live ``lifetime``
    ticks.  With ``repeats > 1`` the whole sequence is replayed again
    (fresh names, identical content) -- the canonical plan-cache-friendly
    churn the service is built for.
    """
    if arrivals_per_tick < 1:
        raise ValueError("arrivals_per_tick must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    queries = list(workload)
    events: list[SubmitEvent] = []
    tick = 0.0
    slot = 0
    for round_no in range(repeats):
        for query in queries:
            if slot == 0:
                tick += 1.0
            name = query.name if round_no == 0 else f"{query.name}.r{round_no}"
            events.append(
                SubmitEvent(time=tick, query=query.renamed(name), lifetime=lifetime)
            )
            slot = (slot + 1) % arrivals_per_tick
    return events
