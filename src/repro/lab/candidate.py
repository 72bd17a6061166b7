"""Candidate configurations: the strategies a scenario compares.

A :class:`Candidate` names one way to run the control plane -- planner
choice plus the opt-in layer toggles (resilience, adaptivity, resources,
fleet sharding, tenancy) -- and knows how to build a fully configured
:class:`~repro.service.service.StreamQueryService` or
:class:`~repro.fleet.controller.FleetController` on top of a
:class:`~repro.lab.spec.BuiltScenario`.  The scenario supplies the
*environment* (network, workload, capacities, faults); the candidate
only decides which machinery reacts to it, so every candidate in a
panel faces byte-identical conditions.

Roles make reports self-describing: the ``baseline`` candidate anchors
deltas, and when a panel also names a ``ceiling``, the report computes
how much of the baseline-to-ceiling savings each ``contender``
recovers -- the exact shape of the ``bench_fleet`` federated-reuse
headline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping, Sequence

from repro.lab.spec import BuiltScenario, ScenarioError

MODES = ("service", "fleet")
ROLES = ("baseline", "ceiling", "contender")


@dataclass(frozen=True)
class Candidate:
    """One named control-plane configuration.

    Attributes:
        name: Panel-unique slug (becomes the report column).
        mode: ``service`` (one control plane) or ``fleet`` (sharded).
        role: ``baseline`` / ``ceiling`` / ``contender``; see module doc.
        algorithm: Planner (``top-down`` / ``bottom-up`` / ``exhaustive``).
        ads: Advertisement-driven view reuse.  Like ``bench_fleet``'s
            no-ads control, disabling ads also disables planner reuse --
            otherwise planners reuse straight from the deployment state
            and the baseline would not isolate the no-reuse cost.
        budget: Admission budget (per shard in fleet mode).
        max_per_tick / max_queue: Admission-queue shape (per shard in
            fleet mode).
        shards / policy / federation: Fleet shape; ignored in service
            mode.
        resilience: Arm the resilience layer (breakers, retry, parking).
        faults: Arm the scenario's :class:`FaultPlan` (requires the
            spec to carry one).
        adaptivity: Arm the drift-reacting migration loop.
        resources: Arm capacity-aware planning against the scenario's
            capacity profile (requires ``spec.capacity``).  A scenario
            with a capacity profile takes service candidates only.
        utilization_bound: Override of the capacity profile's bound.
        tenants: Route submissions through the scenario's tenant mix
            (fleet mode only).
        description: One-liner for reports.
    """

    name: str
    mode: str = "service"
    role: str = "contender"
    algorithm: str = "top-down"
    ads: bool = True
    budget: int = 64
    shards: int = 4
    policy: str = "hash"
    max_per_tick: int | None = None
    max_queue: int | None = None
    federation: bool = True
    resilience: bool = False
    faults: bool = False
    adaptivity: bool = False
    resources: bool = False
    utilization_bound: float | None = None
    tenants: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("candidate needs a name")
        if self.mode not in MODES:
            raise ScenarioError(
                f"candidate {self.name!r}: mode must be one of {MODES}, "
                f"got {self.mode!r}"
            )
        if self.role not in ROLES:
            raise ScenarioError(
                f"candidate {self.name!r}: role must be one of {ROLES}, "
                f"got {self.role!r}"
            )
        if self.mode == "fleet" and self.shards < 1:
            raise ScenarioError(f"candidate {self.name!r}: shards must be >= 1")
        if self.tenants and self.mode != "fleet":
            raise ScenarioError(
                f"candidate {self.name!r}: tenants require fleet mode"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    # ------------------------------------------------------------------
    def build(self, built: BuiltScenario, telemetry=None):
        """Instantiate this candidate's control plane on a scenario.

        Each candidate must be handed its *own* :class:`BuiltScenario`
        (control planes mutate clocks and rate models); the runner
        rebuilds the scenario per candidate from the spec's seed.
        """
        if self.mode == "fleet" and built.capacities is not None:
            # The capacity audit's ledger books one service's deployments.
            raise ScenarioError(
                f"candidate {self.name!r}: a fleet does not arm the resource "
                "layer, so it cannot run a scenario with a capacity profile"
            )
        if self.resources and built.capacities is None:
            raise ScenarioError(
                f"candidate {self.name!r} asks for resources but the "
                "scenario has no capacity profile"
            )
        if self.faults and built.spec.faults is None:
            raise ScenarioError(
                f"candidate {self.name!r} asks for faults but the "
                "scenario has no fault plan"
            )
        resources = None
        if self.resources:
            from repro.resources import ResourceConfig

            bound = self.utilization_bound
            if bound is None:
                bound = built.spec.capacity.bound
            resources = ResourceConfig(
                capacities=built.capacities, utilization_bound=bound
            )
        resilience = None
        if self.resilience:
            from repro.resilience.degradation import ResilienceConfig

            resilience = ResilienceConfig()
        adaptivity = None
        if self.adaptivity:
            from repro.adaptive.loop import AdaptivityConfig

            # The adapt drill's snappier settings: lab scenarios run
            # tens of ticks, so the stock multi-tick cooldowns would
            # leave the loop no room to act before the run ends.
            adaptivity = AdaptivityConfig(
                alpha=0.5,
                publish_cooldown=2.0,
                query_cooldown=2.0,
                max_migrations_per_tick=4,
            )
        faults = built.fault_plan() if self.faults else None

        if self.mode == "fleet":
            return self._build_fleet(built, telemetry, resilience, adaptivity, faults)
        return self._build_service(
            built, telemetry, resources, resilience, adaptivity, faults
        )

    def _build_service(
        self, built, telemetry, resources, resilience, adaptivity, faults
    ):
        from repro.hierarchy import AdvertisementIndex
        from repro.service import AdmissionController, StreamQueryService

        hierarchy = built.hierarchy()
        index = AdvertisementIndex(hierarchy) if self.ads else None
        optimizer = built.env.optimizer(
            self.algorithm,
            max_cs=built.spec.topology.max_cs,
            ads=index,
            reuse=self.ads,
        )
        return StreamQueryService(
            optimizer,
            built.network,
            built.rates,
            hierarchy=hierarchy,
            ads=index,
            admission=AdmissionController(
                budget=self.budget,
                max_queue=self.max_queue,
                max_per_tick=self.max_per_tick,
            ),
            resilience=resilience,
            faults=faults,
            adaptivity=adaptivity,
            telemetry=telemetry,
            resources=resources,
        )

    def _build_fleet(self, built, telemetry, resilience, adaptivity, faults):
        from repro.fleet import FleetController, Tenant

        service_kwargs: dict[str, Any] = {}
        if resilience is not None:
            service_kwargs["resilience"] = resilience
        if faults is not None:
            service_kwargs["faults"] = faults
        if adaptivity is not None:
            service_kwargs["adaptivity"] = adaptivity
        tenants = None
        if self.tenants:
            tenants = [
                Tenant(name=t.name, weight=t.weight, quota=t.quota)
                for t in built.spec.tenants
            ]
        return FleetController(
            self.shards,
            built.network,
            built.rates,
            built.hierarchy(),
            algorithm=self.algorithm,
            policy=self.policy,
            budget=self.budget,
            max_queue=self.max_queue,
            max_per_tick=self.max_per_tick,
            tenants=tenants,
            federation=self.federation,
            service_kwargs=service_kwargs or None,
            telemetry=telemetry,
        )


def candidates_from_list(docs: Sequence[Mapping[str, Any]]) -> list[Candidate]:
    """Compile candidate dicts (from a scenario file) into a panel."""
    panel: list[Candidate] = []
    seen: set[str] = set()
    for i, doc in enumerate(docs):
        try:
            candidate = Candidate(**dict(doc))
        except TypeError as exc:
            raise ScenarioError(f"bad candidate #{i}: {exc}") from None
        if candidate.name in seen:
            raise ScenarioError(f"duplicate candidate name {candidate.name!r}")
        seen.add(candidate.name)
        panel.append(candidate)
    if not panel:
        raise ScenarioError("candidate panel is empty")
    baselines = [c for c in panel if c.role == "baseline"]
    if len(baselines) > 1:
        raise ScenarioError("at most one baseline candidate allowed")
    ceilings = [c for c in panel if c.role == "ceiling"]
    if len(ceilings) > 1:
        raise ScenarioError("at most one ceiling candidate allowed")
    return panel


def default_panel() -> list[Candidate]:
    """The stock two-candidate panel: reuse off vs on, one service."""
    return [
        Candidate(
            name="no_reuse",
            role="baseline",
            ads=False,
            description="single service, advertisements and reuse disabled",
        ),
        Candidate(
            name="reuse",
            role="contender",
            ads=True,
            description="single service with advertisement-driven reuse",
        ),
    ]
