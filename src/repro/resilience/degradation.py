"""Graceful degradation for the query lifecycle service.

:class:`ResilientControl` wraps the service's plan/deploy path in a
*degradation ladder*:

1. ``hierarchical`` -- the primary optimizer through the plan cache,
   gated on the sink's leaf-cluster coordinator being reachable and its
   circuit breaker closed;
2. ``parent`` -- the same planning escalated to the parent cluster's
   coordinator (the paper's coordinator chain: when a leaf coordinator
   is down, its parent can still run the planning task for the
   sub-hierarchy), gated on *that* coordinator instead;
3. ``baseline`` -- local plan-then-deploy at the sink over the live
   placement candidates only; always available, never cached (a
   degraded plan must not be memoized as if it were optimal).

Every rung attempt runs under :func:`~repro.resilience.policy.retry`;
failures feed the per-coordinator :class:`BreakerBoard`.  The
hierarchical rungs plan as the bare service does (shedding to fit under
the resource layer); no feasible placement is a capacity verdict, not a
coordinator fault: it ends the ladder unretried.  Nodes whose
breaker keeps re-opening (*flapping*) are quarantined out of the
placement candidates -- removed from the hierarchy for a spell and
re-admitted when it ends.  Queries no rung can plan are *parked* and
re-admitted automatically once the topology epoch advances (a node
crashed, rejoined, or left quarantine -- any event that could make them
plannable again).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.durability.state import capture_rng, restore_rng
from repro.errors import (
    CoordinatorTimeout,
    CoordinatorUnreachable,
    InfeasiblePlacementError,
    PlanningError,
    ReproError,
)
from repro.obs.tracer import count, span
from repro.query.deployment import Deployment
from repro.query.query import Query
from repro.resilience.faults import NULL_FAULTS
from repro.resilience.policy import ATTEMPT_TIMEOUT, BreakerBoard, BreakerState, retry
from repro.serialization import _query_from_dict, _query_to_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricRegistry
    from repro.service.service import StreamQueryService

#: Gauge encoding of a breaker state (telemetry rules compare numbers).
BREAKER_STATE_VALUES: dict[BreakerState, float] = {
    BreakerState.CLOSED: 0.0,
    BreakerState.HALF_OPEN: 1.0,
    BreakerState.OPEN: 2.0,
}


#: Nominal healthy coordinator round-trip; multiplied by an injected
#: slow-down factor and compared against the attempt timeout.
RPC_SECONDS = 0.05
#: Seed of the backoff jitter (determinism).
JITTER_SEED = 0
#: Breaker-open count that flags a node as flapping and quarantines it
#: from placement.
QUARANTINE_AFTER = 2
#: Ticks a quarantined node stays out.
QUARANTINE_TICKS = 25.0


@dataclass
class ResilienceConfig:
    """Arms the resilience layer.

    It has no knobs: coordinator calls run under
    :func:`~repro.resilience.policy.retry`, a breaker trips on
    :mod:`~repro.resilience.policy`'s 3 consecutive failures and stays
    open 10 ticks,
    and a node whose breaker opened :data:`QUARANTINE_AFTER` times is
    quarantined for :data:`QUARANTINE_TICKS`.
    """


@dataclass
class ParkedQuery:
    """A query waiting in the resilience retry queue.

    Attributes:
        query: The un-plannable query.
        lifetime: Its requested lifetime, preserved for re-admission.
        epoch: Topology epoch at parking time; the query is retried
            once the epoch advances past it.
        reason: Why planning failed.
    """

    query: Query
    lifetime: float | None
    epoch: int
    reason: str


class ResilientControl:
    """The service's resilience engine (ladder + breakers + quarantine).

    Args:
        config: Tuning knobs.
        faults: Fault injector consulted for coordinator reachability
            and slow-downs (:data:`NULL_FAULTS` reports everything
            healthy).
    """

    def __init__(self, config: ResilienceConfig, faults=NULL_FAULTS) -> None:
        self.config = config
        self.faults = faults
        self.rng = np.random.default_rng(JITTER_SEED)
        self.breakers = BreakerBoard()
        self.parked: dict[str, ParkedQuery] = {}
        self.quarantined: dict[int, float] = {}
        self.degraded_queries: set[str] = set()
        self.retries_total = 0
        self.fallbacks_total = 0
        self.parked_total = 0
        self.quarantined_total = 0
        self._changes = 0  # moves with what capture() writes, breakers aside
        self._fallback = None
        self._instruments: dict[str, Any] = {}
        self._registry: "MetricRegistry | None" = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, service: "StreamQueryService") -> None:
        """Attach to a service: build the fallback planner and metrics."""
        from repro.baselines.plan_then_deploy import PlanThenDeploy

        hierarchy = service.hierarchy
        if hierarchy is not None:
            candidates_fn = lambda: sorted(hierarchy.subtree(hierarchy.root))  # noqa: E731
        else:
            candidates_fn = None
        self._fallback = PlanThenDeploy(
            service.network, service.rates, candidates_fn=candidates_fn
        )
        self.bind_instruments(service.registry)

    def bind_instruments(self, registry: "MetricRegistry") -> None:
        """Declare the resilience instruments on ``registry``.

        Mirrors :meth:`AdmissionController.bind_instruments`: idempotent
        (re-binding to the same registry reuses the instruments) and
        callable without a full :meth:`bind` for consumers that only
        want the metrics.  Besides the counters and the parked/
        quarantined gauges, every coordinator the breaker board has seen
        gets a ``resilience_breaker_state_<node>`` gauge encoding its
        state per :data:`BREAKER_STATE_VALUES` (0 closed, 1 half-open,
        2 open), created lazily as breakers appear and kept current by
        :meth:`sync_breaker_gauges`.
        """
        for node in self.breakers.states():  # binding syncs every breaker
            self.breakers.breaker(node)
        self._registry = reg = registry
        reg.counter(
            "resilience_retries_total",
            "Plan attempts retried after a failure.",
            lambda: self.retries_total,
        )
        reg.counter(
            "resilience_fallbacks_total",
            "Plans served by a degraded rung of the ladder.",
            lambda: self.fallbacks_total,
        )
        reg.counter(
            "resilience_breaker_opens_total",
            "Circuit-breaker open transitions.",
            lambda: self.breakers.total_opens(),
        )
        reg.counter(
            "resilience_faults_applied_total",
            "Discrete fault events applied.",
            lambda: len(self.faults.applied),
        )
        self._instruments = {
            "parked": reg.gauge(
                "resilience_parked_queries", "Queries parked awaiting topology change."
            ),
            "quarantined": reg.gauge(
                "resilience_quarantined_nodes", "Nodes quarantined from placement."
            ),
            "backoff": reg.histogram(
                "resilience_backoff_seconds", "Virtual backoff spent on plan retries."
            ),
        }
        self.sync_breaker_gauges()

    def sync_breaker_gauges(self) -> None:
        """Refresh the gauges of the breakers touched since the last sync
        (every breaker has a gauge once synced)."""
        if self._registry is None:
            return
        states = self.breakers.touched()
        count("breaker_gauges_synced", len(states))
        for node, state in states.items():
            gauge = self._registry.gauge(
                f"resilience_breaker_state_{node}",
                f"Breaker state for coordinator {node} "
                "(0=closed, 1=half-open, 2=open).",
            )
            value = BREAKER_STATE_VALUES[state]
            if gauge.value != value:
                gauge.set(value)

    def _set(self, name: str, value: float) -> None:
        instrument = self._instruments.get(name)
        if instrument is not None:
            instrument.set(value)

    # ------------------------------------------------------------------
    # The degradation ladder
    # ------------------------------------------------------------------
    def _rungs(self, service: "StreamQueryService", query: Query) -> list[tuple[str, int | None]]:
        """``(rung_name, gating_coordinator)`` pairs, most capable first."""
        rungs: list[tuple[str, int | None]] = []
        hierarchy = service.hierarchy
        if hierarchy is None:
            rungs.append(("hierarchical", None))
        else:
            try:
                leaf = hierarchy.leaf_cluster(query.sink)
            except KeyError:
                leaf = None
            if leaf is not None:
                rungs.append(("hierarchical", leaf.coordinator))
                parent = leaf.parent
                if parent is not None and parent.coordinator != leaf.coordinator:
                    rungs.append(("parent", parent.coordinator))
        rungs.append(("baseline", None))
        return rungs

    def plan(self, service: "StreamQueryService", query: Query) -> Deployment:
        """Plan through the ladder; raises :class:`PlanningError` when
        every rung fails or one finds no feasible placement (callers
        park the query)."""
        now = service.clock
        failures: list[str] = []
        with span("resilient_plan", query=query.name) as plan_span:
            for rung, coordinator in self._rungs(service, query):
                if coordinator is not None and not self.breakers.allow(coordinator, now):
                    failures.append(f"{rung}: circuit open for coordinator {coordinator}")
                    plan_span.incr("breaker_skips")
                    continue
                try:
                    deployment, attempts = self._attempt(
                        service, query, rung, coordinator, now
                    )
                except InfeasiblePlacementError:
                    # The coordinator answered: close its breaker (no probe left in flight).
                    if coordinator is not None:
                        self.breakers.record_success(coordinator, now)
                        self.sync_breaker_gauges()
                    raise
                except ReproError as exc:
                    failures.append(f"{rung}: {exc}")
                    continue
                if coordinator is not None:
                    self.breakers.record_success(coordinator, now)
                    self.sync_breaker_gauges()
                if rung != "hierarchical":
                    deployment.stats = {**deployment.stats, "resilience_rung": rung}
                    self.degraded_queries.add(query.name)
                    self.fallbacks_total += 1
                    self._changes += 1
                plan_span.tag(rung=rung, attempts=attempts)
                return deployment
            self._quarantine_flapping(service, now)
            self.sync_breaker_gauges()
            plan_span.tag(outcome="exhausted")
        raise PlanningError(
            f"no rung could plan {query.name!r}: " + "; ".join(failures)
        )

    def _attempt(
        self,
        service: "StreamQueryService",
        query: Query,
        rung: str,
        coordinator: int | None,
        now: float,
    ) -> tuple[Deployment, int]:
        """One rung under the retry policy; breaker-feeds every failure
        but a capacity verdict."""

        def once(attempt: int) -> Deployment:
            if coordinator is not None:
                self._check_coordinator(query, coordinator, now)
            if rung == "baseline":
                assert self._fallback is not None, "control is not bound to a service"
                service.before_plan(query)
                return self._fallback.plan(query, service.engine.state)
            return service.plan_feasible(query)

        def on_retry(attempt: int, error: BaseException, delay: float) -> None:
            self.retries_total += 1
            self._changes += 1  # and the jitter RNG the backoff drew from
            backoff = self._instruments.get("backoff")
            if backoff is not None:
                backoff.observe(delay)
            if coordinator is not None:
                self._record_failure(coordinator, now)

        try:
            deployment, attempts, _spent = retry(
                once, self.rng, on_retry, give_up_on=(InfeasiblePlacementError,)
            )
        except InfeasiblePlacementError:
            raise
        except ReproError:
            if coordinator is not None:
                self._record_failure(coordinator, now)
            raise
        return deployment, attempts

    def _record_failure(self, coordinator: int, now: float) -> None:
        self.breakers.breaker(coordinator).record_failure(now)
        self.sync_breaker_gauges()

    def _check_coordinator(self, query: Query, coordinator: int, now: float) -> None:
        """Simulated RPC admission: unreachable/slow coordinators fail."""
        if self.faults.unreachable(coordinator, now):
            raise CoordinatorUnreachable(
                f"coordinator {coordinator} is unreachable from sink {query.sink}"
            )
        latency = RPC_SECONDS * self.faults.slowdown(coordinator, now)
        if latency > ATTEMPT_TIMEOUT:
            raise CoordinatorTimeout(
                f"coordinator {coordinator} answered in {latency:.3f}s "
                f"(attempt timeout {ATTEMPT_TIMEOUT:.3f}s)"
            )

    # ------------------------------------------------------------------
    # Parking (the resilience retry queue)
    # ------------------------------------------------------------------
    def park(
        self,
        service: "StreamQueryService",
        query: Query,
        lifetime: float | None,
        reason: str,
    ) -> ParkedQuery:
        """Park an un-plannable query until the topology epoch advances."""
        parked = ParkedQuery(
            query=query,
            lifetime=lifetime,
            epoch=service.topology_epoch,
            reason=reason,
        )
        self.parked[query.name] = parked
        self.parked_total += 1
        self._changes += 1
        self._set("parked", float(len(self.parked)))
        return parked

    def unpark(self, name: str) -> bool:
        """Drop a parked query (e.g. explicit retirement); True if it was
        parked."""
        found = self.parked.pop(name, None) is not None
        self._changes += found
        if found:
            self._set("parked", float(len(self.parked)))
        return found

    def readmit_parked(self, service: "StreamQueryService", deployed: list[str]) -> None:
        """Retry parked queries whose parking epoch has been superseded
        and whose endpoints are all in the hierarchy."""
        for name, parked in list(self.parked.items()):
            if service.topology_epoch <= parked.epoch:
                continue
            if service.endpoint_problem(parked.query) is not None:
                continue
            del self.parked[name]
            self._changes += 1
            if service._deploy_or_park(parked.query, parked.lifetime) is None:
                deployed.append(name)
        self._set("parked", float(len(self.parked)))

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _quarantine_flapping(self, service: "StreamQueryService", now: float) -> None:
        """Pull flapping coordinators out of the placement candidates."""
        if service.hierarchy is None:
            return
        for node in self.breakers.flapping(QUARANTINE_AFTER):
            if node in self.quarantined:
                continue
            if not self._in_hierarchy(service, node):
                continue
            if len(service.hierarchy.subtree(service.hierarchy.root)) <= 1:
                continue
            from repro.hierarchy.maintenance import remove_node

            with span("quarantine", node=node):
                remove_node(service.hierarchy, node)
            self.quarantined[node] = now + QUARANTINE_TICKS
            self.quarantined_total += 1
            self._changes += 1
            service.bump_topology_epoch()
            self._set("quarantined", float(len(self.quarantined)))

    def release_quarantined(self, service: "StreamQueryService", now: float) -> list[int]:
        """Re-admit nodes whose quarantine expired (and are healthy)."""
        released: list[int] = []
        for node, until in sorted(self.quarantined.items()):
            if until > now or node in self.faults.crashed:
                continue
            del self.quarantined[node]
            self._changes += 1
            if service.rejoin_node(node):
                released.append(node)
        if released:
            self._set("quarantined", float(len(self.quarantined)))
        return released

    @staticmethod
    def _in_hierarchy(service: "StreamQueryService", node: int) -> bool:
        try:
            service.hierarchy.leaf_cluster(node)
            return True
        except KeyError:
            return False

    # ------------------------------------------------------------------
    # Fault-event application (service tick hook)
    # ------------------------------------------------------------------
    def apply_due_faults(self, service: "StreamQueryService", now: float) -> None:
        """Apply the injector's due crash/rejoin events to the service."""
        for kind, payload in self.faults.due_events(now):
            if kind == "crash":
                node = payload.node
                self.faults.crashed.add(node)
                if not self._can_fail(service, node):
                    self.faults.note_applied("crash_skipped", now, node=node)
                    continue
                with span("fault", kind="crash", node=node):
                    report = service.handle_node_failure(node)
                self.faults.note_applied(
                    "crash",
                    now,
                    node=node,
                    retired=list(report.retired),
                    lost=list(report.lost),
                )
            elif kind == "rejoin":
                node = payload
                self.faults.crashed.discard(node)
                rejoined = node not in self.quarantined and service.rejoin_node(node)
                self.faults.note_applied("rejoin", now, node=node, rejoined=rejoined)

    def _can_fail(self, service: "StreamQueryService", node: int) -> bool:
        if service.hierarchy is None or not self._in_hierarchy(service, node):
            return False
        return len(service.hierarchy.subtree(service.hierarchy.root)) > 1

    # ------------------------------------------------------------------
    # Snapshot section
    # ------------------------------------------------------------------
    @property
    def revision(self) -> tuple:
        """Moves with every change of what :meth:`capture` writes."""
        return self._changes, self.breakers.revision

    def capture(self) -> dict[str, Any]:
        """The layer's section of a ``repro.state`` snapshot: parked
        queries, quarantine, breakers, counters and the jitter RNG."""
        return {
            "parked": [
                {**vars(p), "name": name, "query": _query_to_dict(p.query)}
                for name, p in self.parked.items()
            ],
            "quarantined": [[node, t] for node, t in sorted(self.quarantined.items())],
            "degraded": sorted(self.degraded_queries),
            "retries_total": self.retries_total,
            "fallbacks_total": self.fallbacks_total,
            "parked_total": self.parked_total,
            "quarantined_total": self.quarantined_total,
            "rng": capture_rng(self.rng),
            "breakers": self.breakers.capture(),
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into a pristine control."""
        self.parked = {}
        for p in doc["parked"]:
            fields = {**p, "query": _query_from_dict(p["query"])}
            self.parked[fields.pop("name")] = ParkedQuery(**fields)
        self.quarantined = {node: t for node, t in doc["quarantined"]}
        self.degraded_queries = set(doc["degraded"])
        self.retries_total = doc["retries_total"]
        self.fallbacks_total = doc["fallbacks_total"]
        self.parked_total = doc["parked_total"]
        self.quarantined_total = doc["quarantined_total"]
        restore_rng(self.rng, doc["rng"])
        self.breakers.restore(doc["breakers"])

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Resilience counters for reports and the chaos CLI."""
        return {
            "retries": self.retries_total,
            "fallbacks": self.fallbacks_total,
            "breaker_opens": self.breakers.total_opens(),
            "open_breakers": self.breakers.open_nodes(),
            "parked_now": sorted(self.parked),
            "parked_total": self.parked_total,
            "quarantined_now": sorted(self.quarantined),
            "quarantined_total": self.quarantined_total,
            "degraded_queries": sorted(self.degraded_queries),
        }
