"""The fleet controller: N service shards behind one front door.

:class:`FleetController` scales the single-process
:class:`~repro.service.service.StreamQueryService` out into a sharded
control plane.  Each shard is a full service -- its own optimizer over
its own advertisement index, plan cache, admission budget, resilience
ladder and adaptivity loop -- planning against the *shared* physical
network, rate model and hierarchy.  In front of them sit three thin
layers:

* a :class:`~repro.fleet.routing.QueryRouter` assigning every query to
  exactly one shard (fingerprint hash or hierarchy-subtree locality);
* a :class:`~repro.fleet.federation.ReuseFederation` publishing each
  shard's derived views fleet-wide, imported where a plan can read them,
  so the paper's operator reuse crosses the shard boundary;
* a tenant layer (:mod:`repro.fleet.tenancy`) with quotas and
  weighted-fair admission under overload.

A one-shard fleet with no tenants degenerates to the bare service --
same decisions, same deployments, same costs -- which the parity
regression test pins down.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

from repro.adaptive.diff import diff_deployments
from repro.adaptive.migrate import Migrator
from repro.commands import command, next_tick_time
from repro.core.cost import RateModel
from repro.core.optimizer import make_optimizer
from repro.errors import ReproError, UnknownQueryError
from repro.fleet.federation import ReuseFederation
from repro.fleet.routing import QueryRouter, ShardPolicy, make_policy
from repro.fleet.tenancy import (
    PendingSubmit,
    Tenant,
    TenantDirectory,
    WeightedFairScheduler,
)
from repro.hierarchy.advertisements import AdvertisementIndex
from repro.hierarchy.hierarchy import Hierarchy
from repro.network.graph import Network
from repro.obs.metrics import Gauge, MetricRegistry
from repro.query.query import Query
from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionStatus,
)
from repro.service.cache import PlanCache
from repro.service.service import (
    StreamQueryService,
    SubmitEvent,
    TickReport,
    drive_trace,
    submission_problem,
)


@dataclass(frozen=True)
class FleetDecision:
    """Outcome of one fleet submission.

    Attributes:
        decision: The underlying admission decision (fleet- or
            shard-issued).
        shard: Shard the query was routed to (``None`` when rejected
            before routing, e.g. unknown tenant).
        tenant: Tenant the submission was booked under (``""`` in
            tenant-free fleets).
    """

    decision: AdmissionDecision
    shard: int | None
    tenant: str = ""

    @property
    def admitted(self) -> bool:
        return self.decision.admitted

    @property
    def rejected(self) -> bool:
        return self.decision.rejected

    @property
    def status(self) -> AdmissionStatus:
        return self.decision.status


@dataclass
class FleetTickReport:
    """What one fleet tick did, across every layer."""

    time: float
    shard_reports: list[TickReport]
    deployed: list[tuple[str, int]] = field(default_factory=list)
    retired: list[tuple[str, int]] = field(default_factory=list)
    rejected: list[tuple[str, int]] = field(default_factory=list)
    federation: dict = field(default_factory=dict)


@dataclass
class RebalanceReport:
    """Outcome of moving one query between shards."""

    query: str
    source_shard: int
    target_shard: int
    moved: bool
    reason: str = ""
    operators_moved: int = 0
    bytes_moved: float = 0.0
    cutover_completed: float = 0.0
    cost_before: float = 0.0
    cost_after: float = 0.0


@dataclass
class FleetReplayReport:
    """Summary of replaying a trace through the fleet."""

    decisions: list[FleetDecision]
    ticks: int
    wall_seconds: float
    summary: dict = field(default_factory=dict)


#: What the fleet counts per tenant, in ``tenant_summary()`` order.
_TENANT_TOTALS = ("submitted", "admitted", "rejected")


class FleetController:
    """Sharded, multi-tenant control plane with federated reuse.

    Args:
        num_shards: Fleet width (>= 1).
        network: Shared physical network.
        rates: Shared rate model over the stream catalog.
        hierarchy: Shared hierarchy (planning and the locality policy).
        algorithm: Planner name per shard, built over that shard's
            advertisement index (any
            :func:`~repro.core.optimizer.make_optimizer` name; default
            the paper's Top-Down).
        policy: Shard-assignment policy: ``"subtree"`` (default),
            ``"hash"``, or a :class:`~repro.fleet.routing.ShardPolicy`.
        budget: Per-shard concurrent-deployment budget.
        max_queue: Per-shard admission queue bound.
        max_per_tick: Per-shard admission drain limit per tick.
        cache_capacity: Per-shard plan-cache capacity.
        tenants: Tenant records.  Omitted/empty = tenant-free mode:
            submissions pass straight to shard admission.
        federation: Whether cross-shard view reuse is on.
        service_kwargs: Extra keyword arguments forwarded to every
            shard's :class:`StreamQueryService` (resilience, adaptivity,
            ...).  A fleet does not arm the resource layer, so
            ``resources`` is refused here.
        telemetry: Optional :class:`~repro.obs.telemetry.TelemetryConfig`
            (or prebuilt :class:`~repro.obs.telemetry.Telemetry`)
            turning on continuous telemetry at the fleet level: every
            :meth:`tick` ends by scraping the fleet registry and every
            shard registry into one time-series store and evaluating
            the alerting rules.  ``None`` (the default) adds no hooks
            and leaves fleet behavior byte-identical.
        durability: Optional :class:`~repro.durability.DurabilityConfig`
            turning on the durable control plane at the *fleet*
            boundary: every fleet-level command
            (submit/tick/retire/rebalance) is journaled before execution
            and fleet-wide snapshots land on the configured cadence.  Shard sub-services stay undurable
            on purpose (recovery replays through the same shard code
            paths).  ``None`` (the default) keeps the fleet
            byte-identical to a build without the subsystem.
    """

    def __init__(
        self,
        num_shards: int,
        network: Network,
        rates: RateModel,
        hierarchy: Hierarchy,
        algorithm: str = "top-down",
        policy: str | ShardPolicy = "subtree",
        budget: int = 16,
        max_queue: int | None = None,
        max_per_tick: int | None = None,
        cache_capacity: int | None = 256,
        tenants: Iterable[Tenant] | None = None,
        federation: bool = True,
        service_kwargs: dict | None = None,
        telemetry=None,
        durability=None,
    ) -> None:
        if num_shards < 1:
            raise ReproError("a fleet needs at least one shard")
        if service_kwargs and "durability" in service_kwargs:
            # The fleet journals at its own boundary and replays through
            # the same shard code paths; per-shard journals would record
            # every mutation twice and fight over the state directory.
            raise ReproError(
                "pass durability= to the FleetController itself, "
                "not through service_kwargs"
            )
        if service_kwargs and "resources" in service_kwargs:
            # A shard's ledger would book only its own deployments on the
            # *shared* physical nodes.
            raise ReproError("a fleet does not arm the resource layer")
        self.network = network
        self.rates = rates
        self.hierarchy = hierarchy
        self.clock = 0.0

        self.shards: list[StreamQueryService] = []
        for _ in range(num_shards):
            ads = AdvertisementIndex(hierarchy)
            optimizer = make_optimizer(
                algorithm, network, rates, hierarchy=hierarchy, ads=ads
            )
            self.shards.append(
                StreamQueryService(
                    optimizer,
                    network,
                    rates,
                    hierarchy=hierarchy,
                    ads=ads,
                    admission=AdmissionController(
                        budget=budget,
                        max_queue=max_queue,
                        max_per_tick=max_per_tick,
                    ),
                    cache=PlanCache(cache_capacity),
                    **(service_kwargs or {}),
                )
            )

        self.router = QueryRouter(
            make_policy(policy, hierarchy=hierarchy, rates=rates), num_shards
        )
        self.federation: ReuseFederation | None = None
        if federation:
            self.federation = ReuseFederation(self.shards)
            for sid, shard in enumerate(self.shards):
                shard.before_plan = partial(self.federation.import_views, sid)

        directory = TenantDirectory(tenants or ())
        self.tenants = directory
        self.scheduler: WeightedFairScheduler | None = (
            WeightedFairScheduler(directory) if len(directory) else None
        )
        self._tenant_of: dict[str, str] = {}
        self._tenant_live: dict[str, int] = {t.name: 0 for t in directory}
        self._tenant_charge: dict[str, int] = {t.name: 0 for t in directory}
        # Per tenant: submissions, admissions and rejections so far.
        self._tenant_totals: dict[str, dict[str, int]] = {
            t.name: dict.fromkeys(_TENANT_TOTALS, 0) for t in directory
        }

        self.submitted_total = 0
        self.admitted_total = 0
        self.rejected_total = 0
        self.rebalances_total = 0
        self.cross_shard_reuse_total = 0

        # Fleet-level instruments live on their own registry; per-shard
        # service_* metrics stay on each shard's registry.
        self.registry = MetricRegistry()
        reg = self.registry
        self._live_gauge = reg.gauge(
            "fleet_live_queries", "Queries deployed across every shard."
        )
        self._queue_gauge = reg.gauge(
            "fleet_queue_depth",
            "Submissions waiting fleet-wide (tenant backlog + shard queues).",
        )
        for name, help, read in (
            ("fleet_submitted_total", "Submissions received by the fleet.", lambda: self.submitted_total),
            (
                "fleet_admitted_total",
                "Submissions admitted (deployed or queued).",
                lambda: self.admitted_total,
            ),
            (
                "fleet_rejected_total",
                "Submissions rejected fleet- or shard-side.",
                lambda: self.rejected_total,
            ),
            ("fleet_rebalances_total", "Queries moved between shards.", lambda: self.rebalances_total),
            (
                "fleet_cross_shard_reuse_total",
                "Deployed plans reusing a view federated from another shard.",
                lambda: self.cross_shard_reuse_total,
            ),
        ):
            reg.counter(name, help, read)
        self._imports_gauge = reg.gauge(
            "fleet_federation_imports", "Remote views shards hold, imported on demand."
        )
        self._tenant_live_gauges: dict[str, Gauge] = {}
        for tenant in directory:
            suffix = re.sub(r"[^a-zA-Z0-9_]", "_", tenant.name)
            for key, help in zip(_TENANT_TOTALS, ("Submissions by", "Admissions for", "Rejections for")):
                reg.counter(
                    f"tenant_{key}_total_{suffix}",
                    f"{help} tenant {tenant.name}.",
                    lambda name=tenant.name, key=key: self._tenant_totals[name][key],
                )
            self._tenant_live_gauges[tenant.name] = reg.gauge(
                f"tenant_live_{suffix}",
                f"Live queries of tenant {tenant.name}.",
            )

        # Telemetry layer (opt-in, same contract as the service's).
        from repro.obs.telemetry import ensure_telemetry

        self.telemetry = ensure_telemetry(telemetry)
        if self.telemetry is not None:
            self.telemetry.bind_fleet(self)

        # Durability layer (opt-in, fleet-scope journal + snapshots).
        from repro.durability import ensure_durability

        self.durability = ensure_durability(durability)
        self._in_command = False
        if self.durability is not None:
            self.durability.bind_fleet(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Fleet width."""
        return len(self.shards)

    @property
    def live_queries(self) -> list[str]:
        """Names of deployed queries across every shard."""
        out: list[str] = []
        for shard in self.shards:
            out.extend(shard.live_queries)
        return out

    def _num_live(self) -> int:
        return sum(shard.engine.state.num_deployments for shard in self.shards)

    def shard_of(self, name: str) -> int | None:
        """Owning shard of a query (live or queued), or ``None``."""
        return self.router.owner(name)

    def total_cost(self) -> float:
        """Instantaneous communication cost across every shard."""
        return sum(shard.total_cost() for shard in self.shards)

    def layers(self) -> list[tuple[str, Any]]:
        """The fleet-level layers as ``(section name, layer)``, in the one
        order snapshots, recovery and summaries walk them; each has
        ``capture()`` / ``restore(doc)``.  The shards' own layers are
        theirs (:meth:`StreamQueryService.layers`)."""
        named = (
            ("router", self.router),
            ("scheduler", self.scheduler),
            ("federation", self.federation),
        )
        return [(name, layer) for name, layer in named if layer is not None]

    def capture(self) -> dict[str, Any]:
        """The fleet's own scalars in a ``repro.state`` snapshot: clock,
        tenant accounting, counters.  Shards and layers write their own
        sections (:func:`repro.durability.state.capture_fleet`)."""
        return {
            "clock": self.clock,
            "tenants": {
                "tenant_of": dict(self._tenant_of),
                "tenant_live": dict(self._tenant_live),
                "tenant_charge": dict(self._tenant_charge),
                "tenant_totals": {t: dict(totals) for t, totals in self._tenant_totals.items()},
            },
            "counters": {
                "submitted_total": self.submitted_total,
                "admitted_total": self.admitted_total,
                "rejected_total": self.rejected_total,
                "rebalances_total": self.rebalances_total,
                "cross_shard_reuse_total": self.cross_shard_reuse_total,
            },
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into a pristine fleet."""
        self.clock = doc["clock"]
        tenants = doc["tenants"]
        self._tenant_of = dict(tenants["tenant_of"])
        self._tenant_live = dict(tenants["tenant_live"])
        self._tenant_charge = dict(tenants["tenant_charge"])
        for tenant, totals in tenants.get("tenant_totals", {}).items():  # absent from older files
            self._tenant_totals[tenant] = dict(totals)
        counters = doc["counters"]
        self.submitted_total = counters["submitted_total"]
        self.admitted_total = counters.get("admitted_total", 0)  # absent from older files
        self.rejected_total = counters.get("rejected_total", 0)
        self.rebalances_total = counters["rebalances_total"]
        self.cross_shard_reuse_total = counters["cross_shard_reuse_total"]

    def check_invariants(self) -> list[str]:
        """Router/ownership violations (empty when healthy).

        Checks the fleet's core invariant: every live or shard-queued
        query is bound to exactly one shard, and that shard actually
        holds it.
        """
        problems: list[str] = []
        seen: dict[str, int] = {}
        for sid, shard in enumerate(self.shards):
            for name in shard.live_queries + shard.admission.queued_names():
                if name in seen:
                    problems.append(
                        f"query {name!r} held by shards {seen[name]} and {sid}"
                    )
                seen[name] = sid
                owner = self.router.owner(name)
                if owner != sid:
                    problems.append(
                        f"query {name!r} held by shard {sid} but routed to {owner}"
                    )
        for name, owner in self.router.owners().items():
            if name not in seen and not self._in_fleet_backlog(name):
                problems.append(
                    f"query {name!r} bound to shard {owner} but held nowhere"
                )
        return problems

    def _in_fleet_backlog(self, name: str) -> bool:
        if self.scheduler is None:
            return False
        tenant = self._tenant_of.get(name)
        if tenant is None:
            return False
        return any(
            item.query.name == name
            for item in self.scheduler._queues.get(tenant, ())
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @command("cmd_submit")
    def submit(
        self,
        query: Query,
        lifetime: float | None = None,
        time: float | None = None,
        tenant: str | None = None,
    ) -> FleetDecision:
        """Submit a query to the fleet.

        Tenant-free fleets route straight into the owning shard's
        admission (identical semantics to the bare service).  With
        tenants configured, fleet-level quota and backlog checks run
        first; when the shards are over budget the submission parks in
        the tenant's weighted-fair backlog instead of a shard queue.
        """
        if time is not None:
            self.clock = time
        self.submitted_total += 1

        if self.scheduler is None:
            shard = self.router.route(query)
            decision = self.shards[shard].submit(query, lifetime=lifetime, time=time)
            self._book_decision(decision, shard, "")
            fleet_decision = FleetDecision(decision=decision, shard=shard)
        else:
            fleet_decision = self._submit_tenant(query, lifetime, tenant)
        self._mark(
            "admit",
            query=query.name,
            status=fleet_decision.status.value,
            shard=fleet_decision.shard,
            tenant=fleet_decision.tenant,
        )
        if fleet_decision.tenant:
            self._mark_tenant_accounting(fleet_decision.tenant)
        return fleet_decision

    def _mark(self, kind: str, **data) -> None:
        """Journal one marker at the current clock (nothing when the
        durability layer is off)."""
        if self.durability is not None:
            self.durability.marker(kind, self.clock, data)

    def _mark_tenant_accounting(self, tenant: str) -> None:
        self._mark(
            "tenant_accounting",
            tenant=tenant,
            in_flight=self._tenant_charge.get(tenant, 0),
            live=self._tenant_live.get(tenant, 0),
        )

    def _submit_tenant(
        self, query: Query, lifetime: float | None, tenant: str | None
    ) -> FleetDecision:
        record = self.tenants.get(tenant) if tenant is not None else None
        if record is None and tenant is None and len(self.tenants) == 1:
            record = next(iter(self.tenants))
        if record is None:
            decision = AdmissionDecision(
                query=query.name,
                status=AdmissionStatus.REJECTED,
                reason=f"unknown tenant {tenant!r}",
            )
            self.rejected_total += 1
            return FleetDecision(decision=decision, shard=None, tenant=tenant or "")

        totals = self._tenant_totals[record.name]
        totals["submitted"] += 1

        def rejected(reason: str) -> FleetDecision:
            decision = AdmissionDecision(
                query=query.name, status=AdmissionStatus.REJECTED, reason=reason
            )
            self.rejected_total += 1
            totals["rejected"] += 1
            return FleetDecision(
                decision=decision, shard=None, tenant=record.name
            )

        if (
            record.quota is not None
            and self._tenant_charge[record.name] >= record.quota
        ):
            return rejected(
                f"tenant {record.name!r} quota {record.quota} exhausted"
            )
        taken = None
        if self.router.owner(query.name) is not None:
            taken = f"query {query.name!r} is already in the fleet"
        # Every shard shares the network, rates, hierarchy and layers.
        problem = submission_problem(self.shards[0], query, lifetime, taken)
        if problem is not None:
            return rejected(problem)

        shard = self.router.route(query)
        if self._has_capacity(shard) and self.scheduler.total_backlog == 0:
            decision = self.shards[shard].submit(query, lifetime=lifetime)
            self._book_decision(decision, shard, record.name)
            if not decision.rejected:
                self._charge(record.name, query.name)
                if decision.admitted:
                    self._mark_live(record.name)
            return FleetDecision(
                decision=decision, shard=shard, tenant=record.name
            )

        if (
            record.max_queue is not None
            and self.scheduler.backlog(record.name) >= record.max_queue
        ):
            return rejected(
                f"tenant {record.name!r} backlog full "
                f"({self.scheduler.backlog(record.name)}/{record.max_queue})"
            )
        position = self.scheduler.enqueue(
            record.name, PendingSubmit(query=query, lifetime=lifetime, shard=shard)
        )
        self.router.bind(query.name, shard)
        self._charge(record.name, query.name)
        decision = AdmissionDecision(
            query=query.name,
            status=AdmissionStatus.QUEUED,
            reason=f"fleet backlog (tenant {record.name!r})",
            queue_position=position,
        )
        self.admitted_total += 1
        return FleetDecision(decision=decision, shard=shard, tenant=record.name)

    def _has_capacity(self, shard: int) -> bool:
        """Whether a submission to ``shard`` would deploy at once: free
        admission budget and nothing queued ahead of it."""
        service = self.shards[shard]
        return (
            service.engine.state.num_deployments < service.admission.budget
            and service.admission.queue_depth == 0
        )

    def _book_decision(
        self, decision: AdmissionDecision, shard: int, tenant: str
    ) -> None:
        if decision.rejected:
            self.rejected_total += 1
            if tenant:
                self._tenant_totals[tenant]["rejected"] += 1
            return
        self.router.bind(decision.query, shard)
        self.admitted_total += 1
        if tenant:
            self._tenant_totals[tenant]["admitted"] += 1
        if decision.admitted:
            self._after_deploy(shard, decision.query)

    def _charge(self, tenant: str, name: str) -> None:
        self._tenant_of[name] = tenant
        self._tenant_charge[tenant] += 1

    def _mark_live(self, tenant: str) -> None:
        self._tenant_live[tenant] += 1
        self._tenant_live_gauges[tenant].set(float(self._tenant_live[tenant]))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _tick_end(self, report: FleetTickReport) -> None:
        """Tail of a journaled tick: its boundary marker, then the
        snapshot cadence (snapshots are only cut between ticks)."""
        self.durability.marker(
            "tick_end",
            report.time,
            {
                "deployed": [list(d) for d in report.deployed],
                "retired": [list(r) for r in report.retired],
            },
        )
        self.durability.maybe_snapshot(report.time)

    @command("cmd_tick", resolve_time=next_tick_time, tail=_tick_end)
    def tick(self, time: float | None = None) -> FleetTickReport:
        """Advance the whole fleet one step.

        Ticks every shard (expiries retire, shard queues drain), updates
        ownership and tenant accounting, runs one federation sync so
        newly created views are published (a shard imports one when it
        plans a query that reads it) and dead ones withdrawn, then
        drains the tenant backlog into freed shard capacity under
        weighted fairness.
        """
        now = next_tick_time(self, time)
        self.clock = now
        reports = [shard.tick(now) for shard in self.shards]
        report = FleetTickReport(time=now, shard_reports=reports)
        for sid, shard_report in enumerate(reports):
            for name in shard_report.retired:
                self._forget(name)
                report.retired.append((name, sid))
            for name in shard_report.rejected:  # an endpoint died while it queued
                self._forget(name, live=False)
                self.rejected_total += 1
                report.rejected.append((name, sid))
            for name in shard_report.deployed:
                self._after_deploy(sid, name)
                if self.scheduler is not None:
                    tenant = self._tenant_of.get(name)
                    if tenant is not None:
                        self._mark_live(tenant)
                report.deployed.append((name, sid))
        if self.federation is not None:
            report.federation = self._sync_federation()
        if self.scheduler is not None:
            report.deployed.extend(self._drain_backlog())
        self._record_gauges()
        if self.telemetry is not None:
            self.telemetry.on_fleet_tick(self, report)
        return report

    def _sync_federation(self) -> dict[str, int]:
        """One federation sync, journaled as publish/withdraw markers."""
        result = self.federation.sync()
        if result["published"]:
            self._mark(
                "federation_publish",
                published=result["published"],
                epoch=self.federation.epoch,
            )
        if result["withdrawn"] or result["promoted"]:
            self._mark(
                "federation_withdraw",
                withdrawn=result["withdrawn"],
                promoted=result["promoted"],
                epoch=self.federation.epoch,
            )
        return result

    def _drain_backlog(self) -> list[tuple[str, int]]:
        deployed: list[tuple[str, int]] = []
        while True:
            picked = self.scheduler.pick(
                lambda _tenant, item: self._has_capacity(item.shard)
            )
            if picked is None:
                break
            tenant, item = picked
            decision = self.shards[item.shard].submit(
                item.query, lifetime=item.lifetime
            )
            if decision.admitted:
                self._mark_live(tenant)
                self._tenant_totals[tenant]["admitted"] += 1
                self._after_deploy(item.shard, item.query.name)
                deployed.append((item.query.name, item.shard))
            elif decision.rejected:  # the sink died while it waited
                self.router.release(item.query.name)
                self._tenant_of.pop(item.query.name, None)
                self._tenant_charge[tenant] -= 1
                self._tenant_totals[tenant]["rejected"] += 1
                self.rejected_total += 1
        return deployed

    @command("cmd_retire")
    def retire(self, name: str) -> bool:
        """Retire a query wherever it is (deployed, shard- or
        fleet-queued).

        Returns ``True`` if it was deployed, ``False`` if only queued.

        Raises:
            UnknownQueryError: Nothing in the fleet has that name.
        """
        tenant = self._tenant_of.get(name)
        if self.scheduler is not None and tenant is not None:
            item = self.scheduler.withdraw(tenant, lambda it: it.query.name == name)
            if item is not None:
                self.router.release(name)
                self._tenant_of.pop(name, None)
                self._tenant_charge[tenant] -= 1
                self._record_gauges()
                self._mark_tenant_accounting(tenant)
                return False
        shard = self.router.owner(name)
        if shard is None:
            raise UnknownQueryError(f"query {name!r} is not in the fleet")
        was_live = self.shards[shard].retire(name)
        self._forget(name, live=was_live)
        if self.federation is not None:
            self._sync_federation()
        self._record_gauges()
        self._mark("retire", query=name)
        if tenant is not None:
            self._mark_tenant_accounting(tenant)
        return was_live

    def _forget(self, name: str, live: bool = True) -> None:
        self.router.release(name)
        tenant = self._tenant_of.pop(name, None)
        if tenant is not None:
            self._tenant_charge[tenant] -= 1
            if live:
                self._tenant_live[tenant] -= 1
                self._tenant_live_gauges[tenant].set(float(self._tenant_live[tenant]))

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    @command("cmd_rebalance")
    def rebalance(self, name: str, target_shard: int) -> RebalanceReport:
        """Move one live query to another shard.

        Retires it from its owner, re-syncs the federation (so the
        target shard plans against the post-retirement view population),
        replans and deploys on the target, and prices the cutover with
        the adaptive layer's migration machinery
        (:func:`diff_deployments` + :meth:`Migrator.simulate_cutover`).
        A move that cannot be admitted rolls back onto the source shard.
        """
        if not 0 <= target_shard < self.num_shards:
            raise ReproError(f"no shard {target_shard} in a {self.num_shards}-shard fleet")
        source_shard = self.router.owner(name)
        if source_shard is None or not self.shards[source_shard].is_live(name):
            raise UnknownQueryError(f"query {name!r} is not deployed in the fleet")
        if target_shard == source_shard:
            return RebalanceReport(
                query=name,
                source_shard=source_shard,
                target_shard=target_shard,
                moved=False,
                reason="already on the target shard",
            )
        source = self.shards[source_shard]
        target = self.shards[target_shard]
        if not self._has_capacity(target_shard):
            return RebalanceReport(
                query=name,
                source_shard=source_shard,
                target_shard=target_shard,
                moved=False,
                reason="target shard has no free admission budget",
            )

        old = source.engine.state.deployment(name)
        expiry = source._expiry.get(name)
        remaining = None if expiry is None else max(1.0, expiry - self.clock)
        cost_before = self.total_cost()

        self._mark(
            "migrate_begin",
            query=name,
            source_shard=source_shard,
            target_shard=target_shard,
        )
        source.retire(name)
        if self.federation is not None:
            self._sync_federation()
        decision = target.submit(old.query, lifetime=remaining)
        if not decision.admitted:
            if decision.status is AdmissionStatus.QUEUED:
                target.retire(name)  # queued there: take it back
            source.submit(old.query, lifetime=remaining)
            if self.federation is not None:
                self._sync_federation()
            self._mark("migrate_abort", query=name, reason="target admission refused")
            return RebalanceReport(
                query=name,
                source_shard=source_shard,
                target_shard=target_shard,
                moved=False,
                reason=f"target admission refused: {decision.reason}",
                cost_before=cost_before,
                cost_after=self.total_cost(),
            )

        self.router.rebind(name, target_shard)
        self._after_deploy(target_shard, name)
        new = target.engine.state.deployment(name)
        diff = diff_deployments(old, new, self.rates)
        timeline = Migrator(self.network).simulate_cutover(
            diff, coordinator=self.hierarchy.root.coordinator, start_time=self.clock
        )
        for phase, stamp in (
            ("pause", timeline.pause_done),
            ("transfer", timeline.transfer_done),
            ("resume", timeline.completed),
        ):
            if stamp is not None:
                self._mark("migrate_phase", query=name, phase=phase)
        if self.federation is not None:
            self._sync_federation()
        self.rebalances_total += 1
        self._record_gauges()
        self._mark("migrate_commit", query=name, target_shard=target_shard)
        return RebalanceReport(
            query=name,
            source_shard=source_shard,
            target_shard=target_shard,
            moved=True,
            operators_moved=len(diff.moved),
            bytes_moved=diff.total_state_bytes,
            cutover_completed=timeline.completed,
            cost_before=cost_before,
            cost_after=self.total_cost(),
        )

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def replay(
        self,
        events: Iterable[SubmitEvent],
        drain: bool = True,
        max_ticks: int = 100_000,
        tenant_for: Callable[[SubmitEvent], str | None] | None = None,
    ) -> FleetReplayReport:
        """Replay a workload trace through the fleet.

        Same driver contract as the single service's ``replay``:
        submissions land at their tick, the fleet ticks through gaps
        and, with ``drain``, keeps ticking until every backlog is empty
        and every finite-lifetime query retired.  ``tenant_for`` maps an
        event to a tenant name (``None`` = untenanted submission).
        """
        decisions, ticks, wall = drive_trace(
            self,
            events,
            lambda event: self.submit(
                event.query,
                lifetime=event.lifetime,
                tenant=tenant_for(event) if tenant_for else None,
            ),
            drain,
            max_ticks,
        )
        summary = {
            "submitted": len(decisions),
            "admitted": sum(1 for d in decisions if not d.rejected),
            "rejected": sum(1 for d in decisions if d.rejected),
            "deployed_total": sum(s.deployed_total for s in self.shards),
            "retired_total": sum(s.retired_total for s in self.shards),
            "cache_hits": sum(s.cache.hits for s in self.shards),
            "cache_misses": sum(s.cache.misses for s in self.shards),
            "plans_computed": sum(s.plans_computed for s in self.shards),
            "cross_shard_reuse": self.cross_shard_reuse_total,
            "final_cost": self.total_cost(),
            "final_live": self._num_live(),
            "shards": [self._shard_summary(sid) for sid in range(self.num_shards)],
            **self._layer_summaries(),
        }
        return FleetReplayReport(
            decisions=decisions, ticks=ticks, wall_seconds=wall, summary=summary
        )

    def _has_pending_work(self) -> bool:
        if any(shard._has_pending_work() for shard in self.shards):
            return True
        return self.scheduler is not None and self.scheduler.total_backlog > 0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _shard_summary(self, sid: int) -> dict:
        shard = self.shards[sid]
        return {
            "shard": sid,
            "live": shard.engine.state.num_deployments,
            "queued": shard.admission.queue_depth,
            "deployed_total": shard.deployed_total,
            "retired_total": shard.retired_total,
            "cache_hits": shard.cache.hits,
            "cache_misses": shard.cache.misses,
            "plans_computed": shard.plans_computed,
            "cost": shard.total_cost(),
        }

    def tenant_summary(self) -> dict[str, dict]:
        """Per-tenant accounting snapshot."""
        out: dict[str, dict] = {}
        for tenant in self.tenants:
            snapshot = {
                "weight": tenant.weight,
                "quota": tenant.quota,
                "live": self._tenant_live[tenant.name],
                "in_flight": self._tenant_charge[tenant.name],
                "backlog": (
                    self.scheduler.backlog(tenant.name) if self.scheduler else 0
                ),
            }
            for key, total in self._tenant_totals[tenant.name].items():
                snapshot[key] = float(total)  # as the registry counters read them
            out[tenant.name] = snapshot
        return out

    def summary(self) -> dict:
        """Fleet-wide snapshot for the CLI and reports."""
        return {
            "shards": self.num_shards,
            "policy": self.router.policy.name,
            "live": self._num_live(),
            "submitted_total": self.submitted_total,
            "rebalances_total": self.rebalances_total,
            "cross_shard_reuse_total": self.cross_shard_reuse_total,
            "total_cost": self.total_cost(),
            "per_shard": [self._shard_summary(sid) for sid in range(self.num_shards)],
            **self._layer_summaries(),
        }

    def _layer_summaries(self) -> dict:
        """The optional sections both fleet summaries end with."""
        armed = dict(self.layers())
        out = {}
        if "federation" in armed:
            out["federation"] = armed["federation"].summary()
        if "scheduler" in armed:  # armed exactly when tenants are configured
            out["tenants"] = self.tenant_summary()
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _after_deploy(self, shard: int, name: str) -> None:
        if self.federation is None:
            return
        deployment = self.shards[shard].engine.state.deployment(name)
        if deployment is None:  # pragma: no cover - defensive
            return
        for leaf in deployment.reused_leaves():
            node = deployment.placement[leaf]
            if self.federation.import_for(shard, leaf.view, node) is not None:
                self.cross_shard_reuse_total += 1

    def _record_gauges(self) -> None:
        self._live_gauge.set(float(self._num_live()))
        backlog = sum(s.admission.queue_depth for s in self.shards)
        if self.scheduler is not None:
            backlog += self.scheduler.total_backlog
        self._queue_gauge.set(float(backlog))
        if self.federation is not None:
            self._imports_gauge.set(float(self.federation.active_imports))
