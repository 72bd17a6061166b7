"""Declarative scenario specifications and their builders.

A :class:`ScenarioSpec` is the single source of truth for one
experiment's *environment*: everything that is shared across the
candidate panel -- topology, workload, submission trace, drift
timeline, fault script, tenant mix, capacity profile, telemetry tuning.
Candidates (:mod:`repro.lab.candidate`) only choose how to *react* to
that environment.

Specs are plain data: they load from JSON or TOML files
(:func:`load_scenario`), round-trip through :meth:`ScenarioSpec.to_dict`,
and build deterministically -- :func:`build_scenario` derives every
random draw from ``spec.seed`` through the same
:func:`repro.experiments.harness.build_env` machinery the paper figures
use, so two builds of one spec are identical object-for-object and two
*runs* produce byte-identical envelopes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ReproError
from repro.experiments.harness import EvalEnv, build_env
from repro.resilience.faults import FaultPlan
from repro.service.service import SubmitEvent, churn_trace
from repro.workload.generator import WorkloadParams
from repro.workload.scenarios import DriftTimeline, drift_timeline

SCENARIO_KIND = "repro.scenario"
SCENARIO_VERSION = 1

#: Trace modes the runner understands.
TRACE_MODES = ("churn", "twin_burst")

#: Capacity profiles (mirrors ``repro resources --capacity-profile``).
CAPACITY_PROFILES = ("uniform", "hotspot", "heterogeneous")


class ScenarioError(ReproError):
    """A scenario file or dict is malformed."""


@dataclass(frozen=True)
class TopologySpec:
    """Network + hierarchy shape.

    Attributes:
        nodes: Transit-stub network size.
        max_cs: Hierarchy cluster-size bound.
    """

    nodes: int = 32
    max_cs: int = 4

    def __post_init__(self) -> None:
        if self.nodes < 4:
            raise ScenarioError("topology.nodes must be >= 4")
        if self.max_cs < 2:
            raise ScenarioError("topology.max_cs must be >= 2")


@dataclass(frozen=True)
class WorkloadSpec:
    """Query-mix knobs (a thin veneer over :class:`WorkloadParams`)."""

    streams: int = 8
    queries: int = 12
    joins: tuple[int, int] = (2, 4)
    predicate_style: str = "chain"

    def params(self) -> WorkloadParams:
        return WorkloadParams(
            num_streams=self.streams,
            num_queries=self.queries,
            joins_per_query=tuple(self.joins),
            predicate_style=self.predicate_style,
        )


@dataclass(frozen=True)
class TraceSpec:
    """How the workload arrives.

    ``churn`` replays :func:`repro.service.service.churn_trace`
    (short-lived queries, ``arrivals_per_tick`` at a time, ``repeats``
    rounds).  ``twin_burst`` submits every query once, ticks (a
    federation sync point), then submits a reuse twin of each -- same
    joins, shifted sink -- which is the canonical cross-shard view-reuse
    measurement from ``bench_fleet``.

    ``lifetime`` is in ticks; ``None`` *or any value <= 0* means forever
    (TOML has no null, so ``lifetime = 0.0`` is the file-format
    spelling of a permanent deployment).
    """

    mode: str = "churn"
    lifetime: float | None = 5.0
    arrivals_per_tick: int = 2
    repeats: int = 1
    twin_suffix: str = "__twin"
    sink_shift: int = 5

    def effective_lifetime(self) -> float | None:
        if self.lifetime is None or self.lifetime <= 0:
            return None
        return self.lifetime

    def __post_init__(self) -> None:
        if self.mode not in TRACE_MODES:
            raise ScenarioError(
                f"trace.mode must be one of {TRACE_MODES}, got {self.mode!r}"
            )
        if self.arrivals_per_tick < 1:
            raise ScenarioError("trace.arrivals_per_tick must be >= 1")
        if self.repeats < 1:
            raise ScenarioError("trace.repeats must be >= 1")


@dataclass(frozen=True)
class CapacitySpec:
    """Node-capacity profile (the resource layer's supply side)."""

    profile: str = "uniform"
    cpu: float = 1000.0
    memory: float = 1000.0
    bandwidth: float = 1000.0
    weak_fraction: float = 0.25
    weak_scale: float = 0.1
    seed: int = 0
    bound: float = 1.0

    def __post_init__(self) -> None:
        if self.profile not in CAPACITY_PROFILES:
            raise ScenarioError(
                f"capacity.profile must be one of {CAPACITY_PROFILES}, "
                f"got {self.profile!r}"
            )
        if self.bound <= 0:
            raise ScenarioError("capacity.bound must be positive")

    def capacities(self, network) -> dict[int, Any]:
        from repro.resources.capacity import NodeCapacity, uniform_capacities
        from repro.workload.profiles import (
            HeterogeneousFleetProfile,
            HotspotProfile,
        )

        if self.profile == "hotspot":
            return HotspotProfile(
                cpu=self.cpu,
                memory=self.memory,
                bandwidth=self.bandwidth,
                weak_fraction=self.weak_fraction,
                weak_scale=self.weak_scale,
                seed=self.seed,
            ).capacities(network)
        if self.profile == "heterogeneous":
            transit = NodeCapacity(
                cpu=self.cpu * 4, memory=self.memory * 4, bandwidth=self.bandwidth * 4
            )
            stub = NodeCapacity(
                cpu=self.cpu, memory=self.memory, bandwidth=self.bandwidth
            )
            return HeterogeneousFleetProfile(
                by_kind={"transit": transit, "stub": stub}, seed=self.seed
            ).capacities(network)
        return uniform_capacities(
            network, cpu=self.cpu, memory=self.memory, bandwidth=self.bandwidth
        )


@dataclass(frozen=True)
class TelemetrySpec:
    """Per-candidate telemetry pipeline tuning."""

    cadence: float = 1.0
    store_capacity: int = 512

    def __post_init__(self) -> None:
        if self.cadence <= 0:
            raise ScenarioError("telemetry.cadence must be positive")
        if self.store_capacity < 1:
            raise ScenarioError("telemetry.store_capacity must be >= 1")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the scenario's tenant mix."""

    name: str
    weight: float = 1.0
    quota: int | None = None


@dataclass
class ScenarioSpec:
    """One complete, declarative experiment environment.

    Attributes:
        name: Scenario slug (used in report titles and file names).
        seed: Master seed; topology, workload and hierarchy derive from
            it (the fault plan and capacity profile carry their own).
        ticks: Virtual ticks the runner drives (the runner extends past
            this only to flush the trace's scripted submissions).
        description: One-line human summary for ``repro lab list``.
        topology / workload / trace / telemetry: See the nested specs.
        drift: Drift-event dicts (``kind``/``stream``/``at``/...),
            compiled onto the workload's stream catalog via
            :func:`repro.workload.scenarios.drift_timeline`.
        faults: A :meth:`FaultPlan.to_dict` document, armed only on
            candidates that ask for it.
        tenants: Tenant mix for fleet candidates that ask for it.
        capacity: Capacity profile; also prices the read-only audit
            ledger every candidate's summary reports against.
        candidates: Optional embedded candidate panel (list of dicts,
            see :mod:`repro.lab.candidate`).
    """

    name: str = "scenario"
    seed: int = 0
    ticks: int = 8
    description: str = ""
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    trace: TraceSpec = field(default_factory=TraceSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    drift: list[dict[str, Any]] = field(default_factory=list)
    faults: dict[str, Any] | None = None
    tenants: list[TenantSpec] = field(default_factory=list)
    capacity: CapacitySpec | None = None
    candidates: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ScenarioError("ticks must be >= 1")
        if self.faults is not None:
            # Validate eagerly so a bad scenario file fails at load time.
            FaultPlan.from_dict(self.faults)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready round-trippable form (sorted, fully explicit)."""
        return {
            "kind": SCENARIO_KIND,
            "version": SCENARIO_VERSION,
            "name": self.name,
            "seed": self.seed,
            "ticks": self.ticks,
            "description": self.description,
            "topology": asdict(self.topology),
            "workload": {
                **asdict(self.workload),
                "joins": list(self.workload.joins),
            },
            "trace": asdict(self.trace),
            "telemetry": asdict(self.telemetry),
            "drift": [dict(d) for d in self.drift],
            "faults": dict(self.faults) if self.faults is not None else None,
            "tenants": [asdict(t) for t in self.tenants],
            "capacity": asdict(self.capacity) if self.capacity else None,
            "candidates": [dict(c) for c in self.candidates],
        }


def _sub(doc: Mapping[str, Any], key: str, cls, **renames) -> Any:
    raw = dict(doc.get(key) or {})
    for old, new in renames.items():
        if old in raw:
            raw[new] = raw.pop(old)
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ScenarioError(f"bad {key!r} section: {exc}") from None


def scenario_from_dict(doc: Mapping[str, Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a loaded JSON/TOML document."""
    if doc.get("kind") not in (None, SCENARIO_KIND):
        raise ScenarioError(f"not a scenario document: kind={doc.get('kind')!r}")
    known = {
        "kind", "version", "name", "seed", "ticks", "description",
        "topology", "workload", "trace", "telemetry", "drift", "faults",
        "tenants", "capacity", "candidates",
    }
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {unknown}")
    workload = _sub(doc, "workload", WorkloadSpec)
    if "workload" in doc and "joins" in (doc["workload"] or {}):
        joins = doc["workload"]["joins"]
        workload = WorkloadSpec(
            streams=workload.streams,
            queries=workload.queries,
            joins=(int(joins[0]), int(joins[1])),
            predicate_style=workload.predicate_style,
        )
    tenants = [
        t if isinstance(t, TenantSpec) else TenantSpec(**t)
        for t in doc.get("tenants") or []
    ]
    capacity = doc.get("capacity")
    return ScenarioSpec(
        name=str(doc.get("name", "scenario")),
        seed=int(doc.get("seed", 0)),
        ticks=int(doc.get("ticks", 8)),
        description=str(doc.get("description", "")),
        topology=_sub(doc, "topology", TopologySpec),
        workload=workload,
        trace=_sub(doc, "trace", TraceSpec),
        telemetry=_sub(doc, "telemetry", TelemetrySpec),
        drift=[dict(d) for d in doc.get("drift") or []],
        faults=dict(doc["faults"]) if doc.get("faults") else None,
        tenants=tenants,
        capacity=_sub(doc, "capacity", CapacitySpec) if capacity else None,
        candidates=[dict(c) for c in doc.get("candidates") or []],
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load a scenario file (``.json`` or ``.toml``, by extension)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py3.10 fallback
            raise ScenarioError(
                f"cannot load {path}: TOML support needs Python >= 3.11 "
                "(tomllib); use the JSON form of the scenario instead"
            ) from None
        doc = tomllib.loads(text)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"cannot parse {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path} does not contain a scenario table")
    return scenario_from_dict(doc)


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
@dataclass
class BuiltScenario:
    """One materialized scenario environment (per candidate).

    Every candidate gets its *own* build -- control planes mutate their
    clocks, rate models and deployment states, so sharing objects across
    the panel would let candidate A's run leak into candidate B's.
    Determinism makes the builds identical instead.
    """

    spec: ScenarioSpec
    env: EvalEnv
    events: list[SubmitEvent]
    timeline: DriftTimeline | None
    capacities: dict[int, Any] | None

    @property
    def network(self):
        return self.env.network

    @property
    def rates(self):
        return self.env.rates

    def hierarchy(self):
        return self.env.hierarchy(self.spec.topology.max_cs)

    def fault_plan(self) -> FaultPlan | None:
        """A fresh injector-ready plan (fault injectors pop state)."""
        if self.spec.faults is None:
            return None
        return FaultPlan.from_dict(self.spec.faults)


def _build_trace(spec: ScenarioSpec, env: EvalEnv) -> list[SubmitEvent]:
    trace = spec.trace
    lifetime = trace.effective_lifetime()
    if trace.mode == "churn":
        return churn_trace(
            env.workload,
            lifetime=lifetime,
            arrivals_per_tick=trace.arrivals_per_tick,
            repeats=trace.repeats,
        )
    # twin_burst: originals at tick 1, reuse twins at tick 2.
    num_nodes = env.network.num_nodes
    events = [
        SubmitEvent(time=1.0, query=q, lifetime=lifetime)
        for q in env.workload
    ]
    for query in env.workload:
        twin = query.renamed(
            query.name + trace.twin_suffix,
            sink=(query.sink + trace.sink_shift) % num_nodes,
        )
        events.append(SubmitEvent(time=2.0, query=twin, lifetime=lifetime))
    return events


def _build_timeline(spec: ScenarioSpec, env: EvalEnv) -> DriftTimeline | None:
    if not spec.drift:
        return None
    timeline: DriftTimeline | None = None
    for event in spec.drift:
        kwargs = dict(event)
        kind = kwargs.pop("kind", "step")
        one = drift_timeline(dict(env.rates.streams), kind=kind, **kwargs)
        if timeline is None:
            timeline = one
        else:
            timeline.events.extend(one.events)
    return timeline


def build_scenario(spec: ScenarioSpec) -> BuiltScenario:
    """Materialize a spec into a fresh, fully seeded environment."""
    env = build_env(
        spec.topology.nodes,
        spec.workload.params(),
        max_cs_values=(spec.topology.max_cs,),
        seed=spec.seed,
    )
    capacities = (
        spec.capacity.capacities(env.network) if spec.capacity else None
    )
    return BuiltScenario(
        spec=spec,
        env=env,
        events=_build_trace(spec, env),
        timeline=_build_timeline(spec, env),
        capacities=capacities,
    )


def list_scenarios(directory: str | Path) -> list[dict[str, Any]]:
    """Scan a directory for scenario files; returns summary rows.

    Unparseable files are reported with an ``error`` field instead of
    being skipped silently.
    """
    rows: list[dict[str, Any]] = []
    directory = Path(directory)
    if not directory.is_dir():
        return rows
    for path in sorted(directory.iterdir()):
        if path.suffix.lower() not in (".json", ".toml"):
            continue
        row: dict[str, Any] = {"file": path.name}
        try:
            spec = load_scenario(path)
        except (ScenarioError, ValueError, OSError) as exc:
            row["error"] = str(exc)
        else:
            row.update(
                name=spec.name,
                description=spec.description,
                seed=spec.seed,
                ticks=spec.ticks,
                nodes=spec.topology.nodes,
                queries=spec.workload.queries,
                candidates=[
                    str(c.get("name", f"candidate{i}"))
                    for i, c in enumerate(spec.candidates)
                ],
            )
        rows.append(row)
    return rows


def scenario_candidates(spec: ScenarioSpec) -> "list":
    """The spec's embedded candidate panel, compiled.

    Import lives here (not at module top) to keep ``spec`` importable
    without the candidate module and avoid a cycle.
    """
    from repro.lab.candidate import candidates_from_list

    return candidates_from_list(spec.candidates)
