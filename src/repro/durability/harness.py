"""Crash-restart chaos harness: prove recovery converges, point by point.

The harness runs a *scripted* scenario twice per crash point:

1. **Baseline** -- the full script against a durable controller in a
   fresh state directory, no crash points armed.  Its journal supplies
   the candidate crash LSNs (command boundaries, deploy markers,
   migration barrier phases, the snapshot write) and its
   :func:`digest` is the ground truth.
2. **Crashed** -- a fresh state directory, the same script, one armed
   :class:`~repro.resilience.faults.CrashPoint`.  The run dies with
   :class:`~repro.durability.journal.SimulatedCrash` mid-append (or
   mid-snapshot), the harness rebuilds via
   :func:`~repro.durability.recovery.recover` with the scenario's
   deterministic factory, resumes the script at the first command the
   repaired journal does *not* contain, and digests the result.

Because every command is journaled *before* it executes, the resume
index is simply the count of valid command records after repair: a
durable command record means recovery replays that step (even when the
crash interrupted it halfway through, e.g. between two migration
barriers); a torn record means the step never happened and the resume
re-runs it.  Either way each script step executes exactly once in the
recovered world, so a correct recovery produces a digest identical to
the baseline -- the whole document a snapshot would write, the total
cost, and the next :data:`EXTRA_TICKS` tick reports.

Scenarios are pure functions of their seeds; nothing here reads a wall
clock.  ``repro chaos --crash-points N`` fronts
:func:`crash_restart_matrix`.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.durability.journal import (
    COMMAND_KINDS,
    JOURNAL_FILE,
    SimulatedCrash,
    scan_journal,
)
from repro.durability.recovery import recover
from repro.resilience.faults import CrashPoint

#: Post-script ticks each digest must agree on.
EXTRA_TICKS = 5
_FLEET_SHARDS = 2


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """A deterministic controller factory plus a command script.

    Attributes:
        scope: The :data:`SCENARIOS` key (``"service"``, ``"fleet"`` or
            ``"layers"``); a ``"fleet"`` scenario drives a fleet
            controller, the others a service.
        factory: ``factory(state_dir)`` builds a pristine controller
            with durability bound to ``state_dir``.  Calling it twice
            with different directories yields behaviorally identical
            controllers (same seeds, same workload).
        steps: Script of ``(command method, keyword arguments)`` steps;
            each executes exactly one journaled command against the
            controller.
    """

    scope: str
    factory: Callable[[str | Path], Any]
    steps: list[tuple[str, dict[str, Any]]] = field(default_factory=list)


def _world(nodes: int, streams: int, queries: int, workload_seed: int):
    """A scenario's world (network seed 7, one ``max_cs`` 6 hierarchy)."""
    from repro.workload import WorkloadParams, build_world

    params = WorkloadParams(num_streams=streams, num_queries=queries, joins_per_query=(2, 3))
    return build_world(
        nodes, params, network_seed=7, workload_seed=workload_seed, hierarchy_seeds={6: 0}
    )


def _service_env(state_dir: str | Path, layers=None):
    from repro.adaptive.loop import AdaptivityConfig
    from repro.durability import DurabilityConfig
    from repro.service import AdmissionController, StreamQueryService

    world = _world(24, 8, 6, workload_seed=8)
    service = StreamQueryService(
        world.optimizer("top-down"),
        world.network,
        world.rates,
        hierarchy=world.hierarchy(),
        admission=AdmissionController(budget=8, max_per_tick=4),
        # Aggressive knobs so the script's drift observations actually
        # commit migrations -- the crash matrix needs journal records at
        # every barrier phase.
        adaptivity=AdaptivityConfig(
            hysteresis_ticks=1,
            publish_cooldown=1.0,
            min_relative_gain=0.0,
            query_cooldown=0.0,
            horizon=200.0,
            bytes_per_tuple=8.0,
            max_migrations_per_tick=2,
        ),
        durability=(
            None  # no journal: what recover() must refuse
            if state_dir is None
            else DurabilityConfig(state_dir=state_dir, snapshot_interval=6)
        ),
        **(layers(world.network) if layers is not None else {}),
    )
    return service, world.workload


def service_scenario() -> Scenario:
    """Single-service script: churn, drift-driven migrations, failover.

    Covers every service command kind: submits, ticks, a retire, two
    drift observations (which commit migrations a few ticks later), a
    coordinator failure and its rejoin.
    """
    world = _world(24, 8, 6, workload_seed=8)  # the catalog the script reads
    queries = list(world.workload)
    drift = {
        s: world.rates.streams[s].rate * (6.0 if i % 2 == 0 else 0.1)
        for i, s in enumerate(sorted(world.rates.streams))
    }
    failed = world.hierarchy().leaf_cluster(queries[0].sink).coordinator
    tick = ("tick", {})
    observe = ("observe_rates", {"samples": drift})
    steps = [("submit", {"query": query, "lifetime": None}) for query in queries]
    steps += [tick] * 3 + [observe, tick, observe] + [tick] * 2
    steps += [("retire", {"name": queries[1].name}), tick]
    steps += [("handle_node_failure", {"node": failed})] + [tick] * 2
    steps += [("rejoin_node", {"node": failed})] + [tick] * 3

    def factory(state_dir):
        built, _ = _service_env(state_dir)
        return built

    return Scenario("service", factory, steps)


def layered_scenario() -> Scenario:
    """The service script with resilience, adaptivity and resources armed
    together: a coordinator outage during the first submissions opens a
    breaker, the fault injector crashes a node mid-script (and rejoins
    it), drift repair sheds, and the crash's resubmission parks for
    capacity -- so breakers, the resource layer's parking lot, the
    injector cursor and the drift monitor all hold state at the crash
    points.  (The resilience lot stays empty: no rung ever runs out.)
    """
    from repro.resilience.degradation import ResilienceConfig
    from repro.resilience.faults import CoordinatorOutage, FaultInjector, FaultPlan, NodeCrash
    from repro.resources import ResourceConfig, uniform_capacities

    world = _world(24, 8, 6, workload_seed=8)
    leaf = world.hierarchy().leaf_cluster(next(iter(world.workload)).sink)
    outage = CoordinatorOutage(time=0.0, node=leaf.coordinator, duration=1.0)

    def layers(net):
        crash = NodeCrash(time=6.0, node=1, rejoin_after=4.0)
        tight = uniform_capacities(net, cpu=3500.0, memory=3500.0, bandwidth=3500.0)
        return {
            "resilience": ResilienceConfig(),
            "faults": FaultInjector(FaultPlan([outage, crash])),
            "resources": ResourceConfig(capacities=tight),
        }

    base = service_scenario()
    # The injector fails the node; the script's own failure/rejoin
    # commands become plain ticks.
    steps = [
        step if step[0] not in ("handle_node_failure", "rejoin_node") else ("tick", {})
        for step in base.steps
    ]
    return Scenario("layers", lambda d: _service_env(d, layers)[0], steps)


def _fleet_env(state_dir: str | Path):
    from repro.durability import DurabilityConfig
    from repro.fleet.controller import FleetController
    from repro.fleet.tenancy import Tenant

    world = _world(32, 10, 8, workload_seed=9)
    fleet = FleetController(
        _FLEET_SHARDS,
        world.network,
        world.rates,
        world.hierarchy(),
        policy="hash",
        budget=6,
        max_per_tick=3,
        tenants=[Tenant("acme", weight=2.0), Tenant("umbrella", weight=1.0)],
        durability=DurabilityConfig(state_dir=state_dir, snapshot_interval=6),
    )
    return fleet, world.workload


def fleet_scenario() -> Scenario:
    """Two-shard fleet script: tenant churn, a twin, a retire, a rebalance."""
    from repro.fleet.routing import HashShardPolicy

    queries = list(_world(32, 10, 8, workload_seed=9).workload)
    tenants = ["acme", "umbrella"]
    tick = ("tick", {})
    home = HashShardPolicy().assign(queries[0], _FLEET_SHARDS, [])
    other = (home + 1) % _FLEET_SHARDS
    # Its twin on the other shard, once a sync has published its views,
    # imports them: the snapshots hold an import.
    twins = (queries[0].renamed("twin", sink=n) for n in range(32))
    twin = next(t for t in twins if HashShardPolicy().assign(t, _FLEET_SHARDS, []) == other)
    steps = [
        ("submit", {"query": query, "lifetime": None, "tenant": tenants[i % 2]})
        for i, query in enumerate(queries)
    ]
    steps += [tick, ("submit", {"query": twin, "lifetime": None, "tenant": "acme"})]
    steps += [tick] * 3 + [("retire", {"name": queries[2].name})] + [tick] * 2
    # Move one live query to the other shard: the rebalance path emits
    # the same migrate_* barrier ladder the in-service migrator does.
    steps += [("rebalance", {"name": queries[0].name, "target_shard": other})]
    steps += [tick] * 4

    def factory(state_dir):
        built, _ = _fleet_env(state_dir)
        return built

    return Scenario("fleet", factory, steps)


SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "service": service_scenario,
    "fleet": fleet_scenario,
    "layers": layered_scenario,
}


# ----------------------------------------------------------------------
# Script execution
# ----------------------------------------------------------------------
def execute_step(controller, step: tuple[str, dict[str, Any]]) -> None:
    """Run one script step (= one journaled command) on ``controller``."""
    method, arguments = step
    getattr(controller, method)(**arguments)


def run_steps(
    scenario: Scenario, controller, start: int = 0
) -> tuple[bool, int]:
    """Execute the script from ``start``.

    Returns:
        ``(crashed, index)`` -- whether an armed crash point fired, and
        the index of the step it fired in (``len(steps)`` on a clean
        run).
    """
    for i in range(start, len(scenario.steps)):
        try:
            execute_step(controller, scenario.steps[i])
        except SimulatedCrash:
            return True, i
    return False, len(scenario.steps)


def resume_index(state_dir: str | Path) -> int:
    """First script step the repaired journal does *not* contain.

    Commands are journaled before they execute and each step issues
    exactly one, so the count of valid command records is the index of
    the first step the recovered controller still has to run.
    """
    records, _ = scan_journal(Path(state_dir) / JOURNAL_FILE)
    return sum(1 for rec in records if rec["kind"] in COMMAND_KINDS)


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def _tick_report_doc(report) -> dict[str, Any]:
    return {
        "time": report.time,
        "deployed": [list(d) if not isinstance(d, str) else d for d in report.deployed],
        "retired": [list(r) if not isinstance(r, str) else r for r in report.retired],
        "parked": list(getattr(report, "parked", []) or []),
        "migrated": list(getattr(report, "migrated", []) or []),
        "drift_streams": list(getattr(report, "drift_streams", []) or []),
    }


def invariant_violations(scenario: Scenario, controller) -> list[str]:
    """Hierarchy + fleet invariants, flattened to one list."""
    violations: list[str] = []
    if scenario.scope == "fleet":
        violations += controller.check_invariants()
    if controller.hierarchy is not None:
        violations += controller.hierarchy.invariant_violations()
    return violations


def digest(controller) -> dict[str, Any]:
    """Deterministic end-state fingerprint plus the next-N tick reports:
    the document a snapshot of ``controller`` would write, its rounded
    total cost, and the reports of :data:`EXTRA_TICKS` further ticks.

    Mutates the controller (drives the further ticks) -- a recovered
    control plane must not only match the baseline's state but keep
    making the same decisions going forward.
    """
    from repro.durability.snapshot import splice_json
    from repro.durability.state import FragmentMemo, capture_fleet, capture_service

    capture = capture_fleet if controller.durability.scope == "fleet" else capture_service
    return {
        "state": splice_json(capture(controller, FragmentMemo())),
        "total_cost": round(controller.total_cost(), 9),
        "next_ticks": [_tick_report_doc(controller.tick()) for _ in range(EXTRA_TICKS)],
    }


# ----------------------------------------------------------------------
# Crash-point selection
# ----------------------------------------------------------------------
def default_crash_points(
    records: list[dict[str, Any]], limit: int | None = None
) -> list[CrashPoint]:
    """Pick a covering set of crash points from a baseline journal.

    One clean crash after the first record of every distinct kind the
    journal contains (commands, deploy/retire markers, every migration
    barrier phase seen, tick boundaries), a ``mid_snapshot`` point
    aimed at each snapshot write, torn-tail variants of the first and
    last records, and a clean crash at the very last record.

    ``limit`` keeps that many, in journal order, and the ones that
    recover from a snapshot (the ``mid_snapshot`` point and the crash at
    the last record) first: the earliest points all crash before the
    first snapshot is cut, so a prefix would never restore one.
    """
    points: list[CrashPoint] = []
    seen: set[tuple[int, bool, bool]] = set()

    def add(after_lsn: int, time: float, torn: bool = False, mid: bool = False) -> None:
        key = (after_lsn, torn, mid)
        if after_lsn < 1 or key in seen:
            return
        seen.add(key)
        points.append(
            CrashPoint(
                time=time, after_lsn=after_lsn, torn_tail=torn, mid_snapshot=mid
            )
        )

    first_of_kind: dict[str, dict[str, Any]] = {}
    for rec in records:
        kind = rec["kind"]
        if kind == "migrate_phase":
            kind = f"migrate_phase:{rec['data']['phase']}"
        if kind not in first_of_kind:
            first_of_kind[kind] = rec
    for kind, rec in sorted(first_of_kind.items(), key=lambda kv: kv[1]["lsn"]):
        if kind == "snapshot":
            # The snapshot marker follows the write; aim a mid-snapshot
            # crash at the LSN the snapshot was cut at, so the torn file
            # lands exactly where the original did.
            add(rec["data"]["lsn"], rec["time"], mid=True)
        else:
            add(rec["lsn"], rec["time"])
    if records:
        add(records[0]["lsn"], records[0]["time"], torn=True)
        last = records[-1]
        add(last["lsn"], last["time"])
        mid = records[len(records) // 2]
        add(mid["lsn"], mid["time"], torn=True)
    if limit is not None and records:
        last = records[-1]["lsn"]
        restoring = [
            p for p in points if p.mid_snapshot or (p.after_lsn == last and not p.torn_tail)
        ]
        rest = [p for p in points if p not in restoring]
        keep = restoring[:limit] + rest[: max(0, limit - len(restoring))]
        points = [p for p in points if p in keep]
    return points


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def crash_restart_matrix(
    scenario: Scenario,
    state_root: str | Path,
    points: list[CrashPoint] | None = None,
) -> dict[str, Any]:
    """Run the full crash/recover/resume equivalence matrix.

    Args:
        scenario: The scripted scenario (:func:`service_scenario` /
            :func:`fleet_scenario`).
        state_root: Directory for the per-run state directories.
        points: Crash points to test; default: a covering set derived
            from the baseline journal (:func:`default_crash_points`).

    Returns:
        A JSON-ready report: the baseline summary, one entry per crash
        point (fired / recovery stats / digest match / invariant
        violations), and ``converged`` -- True iff every point fired,
        matched the baseline digest and recovered with zero violations.
    """
    state_root = Path(state_root)
    state_root.mkdir(parents=True, exist_ok=True)

    baseline_dir = state_root / "baseline"
    baseline = scenario.factory(baseline_dir)
    crashed, _ = run_steps(scenario, baseline)
    if crashed:  # pragma: no cover - baseline is never armed
        raise RuntimeError("baseline run crashed; no crash points were armed")
    records, _ = scan_journal(baseline_dir / JOURNAL_FILE)
    baseline_digest = digest(baseline)
    if points is None:
        points = default_crash_points(records)

    report: dict[str, Any] = {
        "scope": scenario.scope,
        "steps": len(scenario.steps),
        "journal_records": len(records),
        "extra_ticks": EXTRA_TICKS,
        "points": [],
        "converged": True,
    }
    for k, point in enumerate(points):
        run_dir = state_root / f"point-{k:03d}"
        entry: dict[str, Any] = {
            "index": k,
            "after_lsn": point.after_lsn,
            "torn_tail": point.torn_tail,
            "mid_snapshot": point.mid_snapshot,
        }
        controller = scenario.factory(run_dir)
        controller.durability.arm([point])
        fired, step_index = run_steps(scenario, controller)
        entry["fired"] = fired
        entry["crashed_in_step"] = step_index if fired else None
        if not fired:
            entry["error"] = "crash point never fired (after_lsn beyond journal end)"
            report["converged"] = False
            report["points"].append(entry)
            continue

        recovered, recovery = recover(run_dir, lambda: scenario.factory(run_dir))
        entry["recovery"] = {
            "snapshot_lsn": recovery.snapshot_lsn,
            "replayed_records": recovery.replayed_records,
            "replayed_ticks": recovery.replayed_ticks,
            "dropped_lines": recovery.journal_drop["dropped_lines"],
            "snapshots_rejected": len(recovery.snapshots_rejected),
            "in_flight_migrations": recovery.in_flight_migrations,
        }
        start = resume_index(run_dir)
        entry["resumed_at_step"] = start
        crashed_again, _ = run_steps(scenario, recovered, start=start)
        if crashed_again:  # pragma: no cover - recovery never arms points
            raise RuntimeError("crash point fired again after recovery")
        violations = invariant_violations(scenario, recovered)
        entry["invariant_violations"] = violations
        entry["digest_match"] = digest(recovered) == baseline_digest
        if not entry["digest_match"] or violations:
            report["converged"] = False
        report["points"].append(entry)
        shutil.rmtree(run_dir, ignore_errors=True)

    report["points_fired"] = sum(1 for p in report["points"] if p["fired"])
    report["points_matched"] = sum(
        1 for p in report["points"] if p.get("digest_match")
    )
    return report
