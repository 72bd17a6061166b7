"""The resource layer's service-facing orchestrator.

:class:`ResourceManager` is the object a
:class:`~repro.service.service.StreamQueryService` is armed with.  It
owns the glue between the pieces:

* builds the :class:`~repro.resources.footprint.OperatorFootprint` over
  the service's rate model and attaches the service's deployment state
  to its own ledger;
* hands the planners a per-query
  :class:`~repro.resources.constraint.PlacementConstraint` snapshot;
* gates every deployment (the authoritative joint feasibility check),
  re-planning once when a cached plan went stale against the current
  load, and parking the query when it still does not fit -- admission
  only adds or parks, it never evicts a live query;
* sheds queries off nodes that rate drift pushed over the bound, and
  re-admits parked queries oldest-first once capacity recovers;
* keeps the ``resource_*`` instruments (per-node utilization gauges,
  shed/readmit/infeasible counters) in the service registry.

Like every optional layer in this codebase, none of this exists unless
the service was constructed with it, and with all capacities unbounded
the manager injects no constraint and rejects nothing -- planner and
service behavior stay byte-identical to a build without the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import InfeasiblePlacementError, PlanningError
from repro.obs.tracer import count
from repro.query.query import Query
from repro.resources.capacity import NodeCapacity
from repro.resources.constraint import PlacementConstraint
from repro.resources.footprint import JoinPricer, OperatorFootprint
from repro.resources.ledger import ResourceLedger, plan_node_loads
from repro.serialization import _query_from_dict, _query_to_dict

#: Parked-query re-admission attempts per tick.
MAX_READMITS_PER_TICK = 2
#: Drift-repair sheds per tick.
MAX_SHED_PER_TICK = 4


@dataclass
class ParkedQuery:
    """A query waiting for capacity to recover.

    Attributes:
        query: The parked query.
        lifetime: Its remaining lifetime at parking time (``None`` =
            run forever once re-admitted).
        reason: Why it was parked (infeasible placement / drift repair).
        parked_at: Tick it was first parked.
        shed: Whether it was evicted while live (vs never deployed).
    """

    query: Query
    lifetime: float | None
    reason: str
    parked_at: float
    shed: bool = False


@dataclass
class ResourceConfig:
    """Tuning of the resource layer.

    Attributes:
        capacities: ``{node: NodeCapacity}``; ``None`` (or all-infinite
            entries) leaves the whole layer passive.
        utilization_bound: Max allowed per-node utilization ratio; 1.0
            means "up to capacity".
        load_weight: Bi-criteria weight: the planners minimize
            ``communication cost + load_weight x projected utilization``
            per operator.  0 (the default) optimizes pure communication
            cost subject to the bound.
    """

    capacities: Mapping[int, NodeCapacity] | None = None
    utilization_bound: float = 1.0
    load_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.utilization_bound <= 0:
            raise ValueError("utilization_bound must be positive")
        if self.load_weight < 0:
            raise ValueError("load_weight must be >= 0")


class ResourceManager:
    """One service's resource-awareness: constraint, gate, park, repair.

    Args:
        config: The layer's tuning; the manager's ledger books the bound
            service's deployments against ``config.capacities``.
    """

    def __init__(self, config: ResourceConfig) -> None:
        self.config = config
        self.ledger = ResourceLedger(config.capacities)
        self.footprint: OperatorFootprint | None = None
        self.service = None
        self.parked: dict[str, ParkedQuery] = {}
        self.shed_total = 0
        self.readmitted_total = 0
        self.infeasible_total = 0
        self.revision = 0  # moves with every change of what capture() writes
        self._node_gauges: dict[int, object] = {}
        self._cursor: int | None = None  # into the ledger's moved nodes

    # ------------------------------------------------------------------
    @property
    def constrained(self) -> bool:
        """Whether any node capacity is finite (the layer is active)."""
        return self.ledger.constrained

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_service(self, service) -> None:
        """Attach to a service: state -> ledger, planner, instruments."""
        if self.service is not None and self.service is not service:
            raise ValueError("a ResourceManager binds to exactly one service")
        self.service = service
        self.footprint = OperatorFootprint(service.rates)
        self.ledger.attach(service.engine.state, self.footprint)
        optimizer = service.optimizer
        if getattr(optimizer, "resources", None) is None:
            try:
                optimizer.resources = self
            except AttributeError:  # pragma: no cover - exotic planners
                pass
        reg = service.registry
        self._max_gauge = reg.gauge(
            "resource_max_utilization",
            "Utilization ratio of the hottest node (load / bounded capacity).",
        )
        self._parked_gauge = reg.gauge(
            "resource_parked_queries",
            "Queries parked waiting for capacity to recover.",
        )
        self._shed_counter = reg.counter(
            "resource_shed_total", "Live queries evicted by drift repair."
        )
        self._readmitted_counter = reg.counter(
            "resource_readmitted_total",
            "Parked queries re-admitted after capacity recovered.",
        )
        self._infeasible_counter = reg.counter(
            "resource_infeasible_total",
            "Deployments refused because no feasible placement exists.",
        )
        for node in service.network.nodes():
            self._node_gauges[node] = reg.gauge(
                f"resource_node_utilization_n{node}",
                f"Utilization ratio of node {node}.",
            )

    # ------------------------------------------------------------------
    # Planner interface
    # ------------------------------------------------------------------
    def constraint_for(self, query: Query) -> PlacementConstraint | None:
        """The constraint a planner should optimize ``query`` under."""
        if not self.constrained or self.footprint is None:
            return None
        return PlacementConstraint(
            query=query,
            footprint=self.footprint,
            capacities=self.ledger.capacities,
            base_loads=self.ledger.node_loads(),
            live_keys=self.ledger.operator_keys(),
            bound=self.config.utilization_bound,
            load_weight=self.config.load_weight,
        )

    def plan_feasible(self, service, query: Query):
        """Plan ``query`` under the live constraint.

        Raises :class:`InfeasiblePlacementError` (counted) when the
        constrained planner finds no feasible placement.
        """
        try:
            deployment, _hit = service.plan(query)
        except InfeasiblePlacementError:
            if not self.constrained:
                raise
            self.infeasible_total += 1
            self.revision += 1
            raise InfeasiblePlacementError(
                f"no feasible placement for {query.name!r} under utilization "
                f"bound {self.config.utilization_bound}"
            ) from None
        return deployment

    # ------------------------------------------------------------------
    # Admission gate
    # ------------------------------------------------------------------
    def check(self, query: Query, deployment) -> list[tuple[int, float]]:
        """Projected bound violations of installing ``deployment`` now."""
        assert self.footprint is not None
        added = plan_node_loads(
            self.footprint,
            query,
            deployment.plan,
            deployment.placement,
            skip_keys=self.ledger.operator_keys(),
            pricer=JoinPricer(self.footprint, query, deployment.signature),
        )
        return self.ledger.violations(self.config.utilization_bound, added)

    def gate(self, service, query: Query, deployment):
        """Authoritative pre-deploy feasibility gate.

        Returns a (possibly re-planned) feasible deployment, or raises
        :class:`InfeasiblePlacementError` -- a ``PlanningError``, so the
        service parks the query.
        """
        if not self.constrained:
            return deployment
        violations = self.check(query, deployment)
        if violations and deployment.stats.get("plan_cache") == "hit":
            # The cached placement was priced under an older background
            # load; evict it and let the constrained planner try fresh.
            from repro.service.fingerprint import query_fingerprint

            key = service.cache.key(
                query_fingerprint(query),
                service.statistics_epoch,
                service.topology_epoch,
            )
            service.cache.demote(key)
            deployment, _ = service.plan(query)
            violations = self.check(query, deployment)
        if violations:
            self.infeasible_total += 1
            self.revision += 1
            hottest = ", ".join(
                f"node {node} at {util:.2f}" for node, util in violations[:3]
            )
            raise InfeasiblePlacementError(
                f"no feasible placement for {query.name!r} under utilization "
                f"bound {self.config.utilization_bound} ({hottest})"
            )
        return deployment

    # ------------------------------------------------------------------
    # Parking / drift repair
    # ------------------------------------------------------------------
    def park(self, service, query: Query, lifetime: float | None, reason: str) -> None:
        """Park an admitted-but-unplaceable query until capacity recovers."""
        self.parked[query.name] = ParkedQuery(
            query=query,
            lifetime=lifetime,
            reason=reason,
            parked_at=service.clock,
        )
        self.revision += 1

    def unpark(self, name: str) -> bool:
        """Drop a parked query (explicit retirement); True if it was parked."""
        found = self.parked.pop(name, None) is not None
        self.revision += found
        return found

    def repair(self, service) -> None:
        """Shed queries off nodes driven over the bound by rate drift.

        Deployments are priced at admission time; when statistics drift
        upward the *live* fleet can exceed the bound with no admission
        to trigger the gate.  Each tick the lowest-named occupant of the
        hottest violating node is shed: retired and parked with its
        remaining lifetime (it re-plans onto cooler nodes at re-admission,
        or stays parked) until the fleet fits again.
        """
        if not self.constrained:
            return
        for _ in range(MAX_SHED_PER_TICK):
            violations = self.ledger.violations(self.config.utilization_bound)
            if not violations:
                break
            hottest = violations[0][0]
            occupants = [
                name for name in self.ledger.queries_on(hottest) if name not in self.parked
            ]
            if not occupants:
                break
            victim = min(occupants)
            expiry = service._expiry.get(victim)
            query = service.engine.state.deployment(victim).query
            service._retire_live(victim)
            self.parked[victim] = ParkedQuery(
                query=query,
                lifetime=None if expiry is None else max(1.0, expiry - service.clock),
                reason="shed for 'drift repair'",
                parked_at=service.clock,
                shed=True,
            )
            self.shed_total += 1
            self.revision += 1

    def step(self, service, now: float) -> list[str]:
        """Repair drift violations, then try re-admitting parked queries
        from the front of the lot; returns names deployed this tick.

        The lot's order is the queue: a query parks at the back, and a
        failed attempt sends it to the back again, so queries that fit
        nowhere cannot hold the front against ones that fit.
        """
        self.repair(service)
        if not self.parked:
            return []
        # A query with an endpoint outside the hierarchy cannot be planned:
        # it waits, without using up a re-admission slot, until it rejoins.
        retry = [p for p in self.parked.values() if not service.endpoint_problem(p.query)]
        deployed: list[str] = []
        for entry in retry[:MAX_READMITS_PER_TICK]:
            name = entry.query.name
            try:
                service._deploy(entry.query, entry.lifetime)
            except PlanningError:
                self.parked[name] = self.parked.pop(name)
                self.revision += 1
                continue
            del self.parked[name]
            self.readmitted_total += 1
            self.revision += 1
            deployed.append(name)
        return deployed

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def record_gauges(self, service) -> None:
        """Refresh the ``resource_*`` gauges and counters."""
        gauges = self._node_gauges
        # One settle and one capacity compare; unmoved gauges stay as set.
        self._cursor, moved, utils = self.ledger.utilization_changes(self._cursor)
        moved = [n for n in (gauges if moved is None else moved) if n in gauges]
        for node in moved:
            gauges[node].set(utils.get(node, 0.0))
        count("node_gauges_written", len(moved))
        self._max_gauge.set(max(utils.values(), default=0.0))
        self._parked_gauge.set(float(len(self.parked)))
        self._shed_counter.sync_total(float(self.shed_total))
        self._readmitted_counter.sync_total(float(self.readmitted_total))
        self._infeasible_counter.sync_total(float(self.infeasible_total))

    def capture(self) -> dict:
        """The manager's section of a ``repro.state`` snapshot: parked
        and shed queries in queue order, and the counters.  The ledger is
        derived state: it re-reads the restored deployment state."""
        return {
            # Every field of the record, so a new one round-trips unasked.
            "parked": [
                {**vars(p), "query": _query_to_dict(p.query)}
                for p in self.parked.values()
            ],
            "shed_total": self.shed_total,
            "readmitted_total": self.readmitted_total,
            "infeasible_total": self.infeasible_total,
        }

    def restore(self, doc: dict) -> None:
        """Inverse of :meth:`capture`, into a pristine manager."""
        # A snapshot written before admission stopped weighing queries
        # carries a ``weight`` per parked query: drop it.
        parked = [
            ParkedQuery(
                **{k: v for k, v in p.items() if k not in ("query", "weight")},
                query=_query_from_dict(p["query"]),
            )
            for p in doc["parked"]
        ]
        self.parked = {p.query.name: p for p in parked}
        self.shed_total = doc["shed_total"]
        self.readmitted_total = doc["readmitted_total"]
        self.infeasible_total = doc["infeasible_total"]

    def summary(self) -> dict:
        """JSON-able layer summary for replay reports and the CLI."""
        return {
            "constrained": self.constrained,
            "utilization_bound": self.config.utilization_bound,
            "load_weight": self.config.load_weight,
            "parked": sorted(self.parked),
            "shed_total": self.shed_total,
            "readmitted_total": self.readmitted_total,
            "infeasible_total": self.infeasible_total,
            "ledger": self.ledger.summary(),
        }


def ensure_resources(value: ResourceConfig | None) -> ResourceManager | None:
    """Normalize the service constructor argument: ``None`` stays
    ``None`` (the layer does not exist), a config builds a manager."""
    if value is None:
        return None
    if isinstance(value, ResourceConfig):
        return ResourceManager(value)
    raise TypeError(
        f"resources must be a ResourceConfig or None, got {type(value).__name__}"
    )
