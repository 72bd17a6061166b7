"""The performance regression lab: curated benchmarks with a trajectory.

A :class:`PerfLab` runs a small, seeded benchmark suite over the
planners and the service tick loop, with the op-count profiler
installed.  Each case runs ``repeats`` times; op counts must be
*identical* across repeats (they are functions of the seeds alone --
any difference is a determinism bug and raises), while wall-clock
durations are summarized per repeat and kept advisory.

Results append to ``BENCH_trajectory.json`` -- one entry per run, so
the file accumulates a performance trajectory across commits that
:mod:`repro.perf.compare` can test new runs against.

Cases (the ``quick`` subset is what CI runs):

* ``plan_top_down`` / ``plan_bottom_up`` -- hierarchical planning over
  a 32-node transit-stub workload; counts trees enumerated, placements,
  DP cost evaluations.
* ``plan_optimal`` -- the flat optimal planner on a smaller workload
  (its enumeration explodes combinatorially by design).
* ``deploy_protocol`` -- deployment-protocol replay; counts messages.
* ``service_churn`` -- lifecycle-service ticks under churn; counts
  cache probes and ticks.
* ``fleet_churn`` -- the sharded fleet control plane under the same
  kind of churn across 3 shards with federation syncs on every tick.
* ``telemetry_overhead`` / ``durability_overhead`` /
  ``resource_overhead`` -- ``service_churn`` re-run with the telemetry
  pipeline (resp. the write-ahead journal, resp. the unbounded resource
  layer) armed; planner op counts must not move, the case's wall clock
  prices the added machinery.
* ``lab_overhead`` -- ``service_churn`` driven through the scenario
  lab's :class:`~repro.lab.runner.CandidateRun` wrapper; same parity
  contract, pricing the experiment harness itself.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.perf.profiler import OpProfiler, profiled

TRAJECTORY_KIND = "repro.perf_trajectory"
TRAJECTORY_VERSION = 1
DEFAULT_TRAJECTORY = "BENCH_trajectory.json"


# ----------------------------------------------------------------------
# Benchmark cases (each builds its own seeded environment per repeat)
# ----------------------------------------------------------------------
def _hier_env(num_queries: int = 8):
    """The 32-node world the hierarchical cases share (max_cs 6)."""
    from repro.workload import WorkloadParams, build_world

    params = WorkloadParams(
        num_streams=10, num_queries=num_queries, joins_per_query=(2, 4)
    )
    return build_world(
        32, params, network_seed=7, workload_seed=8, hierarchy_seeds={6: 0}
    )


def _case_plan_hierarchical(algorithm: str) -> Callable[[], OpProfiler]:
    def run() -> OpProfiler:
        world = _hier_env()
        with profiled() as prof:
            for query in world.workload:
                world.optimizer(algorithm).plan(query)
        return prof

    return run


def _case_plan_optimal() -> OpProfiler:
    from repro.workload import WorkloadParams, build_world

    params = WorkloadParams(num_streams=6, num_queries=4, joins_per_query=(2, 3))
    world = build_world(16, params, network_seed=5, workload_seed=6)
    with profiled() as prof:
        for query in world.workload:
            world.optimizer("optimal").plan(query)
    return prof


def _case_deploy_protocol() -> OpProfiler:
    from repro.runtime import simulate_deployment

    world = _hier_env(num_queries=6)
    optimizer = world.optimizer("top-down")
    deployments = [optimizer.plan(q) for q in world.workload]
    with profiled() as prof:
        for deployment in deployments:
            timeline = simulate_deployment(world.network, deployment)
            prof.count("protocol_tasks", timeline.tasks)
    return prof


def _churn_service(**layers):
    """``(service, workload)``: the budget-4 top-down service every
    churn case drives, with the given layers armed."""
    from repro.service import AdmissionController, StreamQueryService

    world = _hier_env(num_queries=10)
    service = StreamQueryService(
        world.optimizer("top-down"),
        world.network,
        world.rates,
        hierarchy=world.hierarchy(),
        admission=AdmissionController(budget=4, max_per_tick=2),
        **layers,
    )
    return service, world.workload


def _churn(submit, tick, workload, resubmit=True) -> OpProfiler:
    """Replay the churn script under a fresh profiler.

    Ten submissions with 4-6 tick lifetimes, 30 ticks, then -- unless
    ``resubmit`` is off -- four renamed twins and 10 more ticks.
    """
    with profiled() as prof:
        for i, query in enumerate(workload):
            submit(query, lifetime=4.0 + (i % 3))
        for _ in range(30):
            tick()
        if resubmit:
            # Resubmissions hit the plan cache: probe traffic without plans.
            for query in list(workload)[:4]:
                submit(query.renamed(query.name + "_again"), lifetime=2.0)
            for _ in range(10):
                tick()
    return prof


def _case_service_churn() -> OpProfiler:
    service, workload = _churn_service()
    return _churn(service.submit, service.tick, workload)


def _case_fleet_churn() -> OpProfiler:
    """The churn script on a 3-shard fleet: besides the planner counts,
    what the federation's 30 syncs examined (``federation_keys_examined``,
    counted at the hook site) and imported."""
    from repro.fleet import FleetController

    world = _hier_env(num_queries=10)
    fleet = FleetController(
        3,
        world.network,
        world.rates,
        world.hierarchy(),
        policy="hash",
        budget=4,
        max_per_tick=2,
    )
    prof = _churn(
        fleet.submit, fleet.tick, world.workload, resubmit=False
    )
    prof.count("federation_syncs", fleet.federation.syncs)
    prof.count("federation_imports", fleet.federation.imported_total)
    return prof


def _case_telemetry_overhead() -> OpProfiler:
    """Service churn with the telemetry pipeline armed.

    The pipeline only reads instruments, so its op counts (plans,
    probes, ticks) must match ``service_churn`` exactly -- the case
    exists so the 25% gate catches telemetry ever leaking work into
    the planner path, and its wall clock prices the scrape loop.
    ``telemetry_series_held`` is what the scrapes re-read.
    """
    from repro.obs.telemetry import TelemetryConfig

    service, workload = _churn_service(telemetry=TelemetryConfig())
    prof = _churn(
        service.submit, service.tick, workload, resubmit=False
    )
    prof.count("telemetry_samples", service.telemetry.scraper.samples_total)
    prof.count("telemetry_series", len(service.telemetry.store))
    return prof


def _case_durability_overhead() -> OpProfiler:
    """Service churn with the write-ahead journal armed.

    Durability only *records* what the control plane decides, so its
    planner op counts (plans, probes, ticks) must match
    ``service_churn`` exactly -- the case exists so the 25% gate
    catches the journal ever leaking work into the planner path, and
    its wall clock prices the append/snapshot loop.
    """
    import tempfile

    from repro.durability import DurabilityConfig

    with tempfile.TemporaryDirectory(prefix="repro-perf-wal-") as tmp:
        service, workload = _churn_service(
            durability=DurabilityConfig(state_dir=tmp, snapshot_interval=10)
        )
        prof = _churn(service.submit, service.tick, workload)
        prof.count("journal_records", service.durability.journal.records_total)
        prof.count("snapshots", service.durability.snapshots_total)
    return prof


def _case_resource_overhead() -> OpProfiler:
    """Service churn with the resource layer armed but unbounded.

    With every capacity infinite the manager injects no constraint and
    gates nothing, so its planner op counts (plans, probes, ticks) must
    match ``service_churn`` exactly -- the case exists so the 25% gate
    catches the resource layer ever leaking work into the planner path,
    and its wall clock prices the ledger/gauge bookkeeping.  Of its
    own counts, ``ledger_ops_priced`` is the ledger pricing each
    installed join once (the same gate catches it re-deriving instead);
    ``joint_validations`` and ``join_loads_priced`` are the constrained
    search's work and read 0 here, because no constraint exists;
    ``node_gauges_written`` is one write per re-derived node ratio
    (all 32 whenever the set of loaded nodes changes: no capacities).
    """
    from repro.resources import ResourceConfig

    service, workload = _churn_service(resources=ResourceConfig())
    prof = _churn(service.submit, service.tick, workload)
    for key in ("joint_validations", "join_loads_priced"):
        prof.count(key, 0)
    return prof


def _case_lab_overhead() -> OpProfiler:
    """Service churn driven through the scenario lab's CandidateRun.

    The lab wrapper only *observes* -- the per-candidate telemetry
    pipeline scrapes instruments and the tick hook samples the cost
    integral -- so its planner op counts (plans, probes, ticks) must
    match ``service_churn`` exactly.  The case exists so the 25% gate
    catches the experiment harness ever leaking work into the planner
    path, and its wall clock prices the wrapper.
    """
    from repro.lab.candidate import Candidate
    from repro.lab.runner import CandidateRun
    from repro.lab.spec import (
        BuiltScenario,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
    )

    world = _hier_env(num_queries=10)
    # Hand-built scenario around the exact service_churn environment
    # (its max_cs=6 seeds are not reachable through build_scenario).
    spec = ScenarioSpec(
        name="lab_overhead",
        seed=7,
        ticks=40,
        topology=TopologySpec(nodes=world.network.num_nodes, max_cs=6),
        workload=WorkloadSpec(streams=10, queries=10),
    )
    built = BuiltScenario(
        spec=spec,
        env=world,
        events=[],
        timeline=None,
        capacities=None,
    )
    # ads=False, reuse=True is the stock service: no advertisement
    # index, planner reuse from the deployment state -- the same
    # optimizer service_churn builds.
    candidate = Candidate(
        name="churn", ads=False, reuse=True, budget=4, max_per_tick=2
    )
    run = CandidateRun(candidate, built)
    prof = _churn(run.submit, run.tick, world.workload)
    prof.count("telemetry_samples", run.telemetry.scraper.samples_total)
    prof.count("telemetry_series", len(run.telemetry.store))
    return prof


CASES: dict[str, Callable[[], OpProfiler]] = {
    "plan_top_down": _case_plan_hierarchical("top-down"),
    "plan_bottom_up": _case_plan_hierarchical("bottom-up"),
    "plan_optimal": _case_plan_optimal,
    "deploy_protocol": _case_deploy_protocol,
    "service_churn": _case_service_churn,
    "fleet_churn": _case_fleet_churn,
    "telemetry_overhead": _case_telemetry_overhead,
    "durability_overhead": _case_durability_overhead,
    "resource_overhead": _case_resource_overhead,
    "lab_overhead": _case_lab_overhead,
}

#: The subset CI runs on every push (all of them -- the suite is sized
#: to finish in seconds; split this if cases ever grow expensive).
QUICK_CASES = tuple(CASES)


class PerfLab:
    """Runs the benchmark suite and appends to the trajectory file.

    Args:
        cases: Case names to run (default: the quick subset).
        repeats: Times each case runs.  Op counts must agree across
            repeats; wall clock is summarized over them.
        clock: Wall-clock source for whole-case timing (injectable for
            deterministic tests).
    """

    def __init__(
        self,
        cases: list[str] | tuple[str, ...] | None = None,
        repeats: int = 3,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        names = list(cases) if cases is not None else list(QUICK_CASES)
        unknown = [n for n in names if n not in CASES]
        if unknown:
            raise ValueError(
                f"unknown perf cases {unknown!r}; available: {sorted(CASES)}"
            )
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.cases = names
        self.repeats = repeats
        self._clock = clock

    # ------------------------------------------------------------------
    def run_case(self, name: str) -> dict[str, Any]:
        """Run one case ``repeats`` times; verify op-count determinism."""
        runner = CASES[name]
        ops: dict[str, int] | None = None
        walls: list[float] = []
        for _ in range(self.repeats):
            start = self._clock()
            prof = runner()
            walls.append(self._clock() - start)
            if ops is None:
                ops = prof.ops
            elif ops != prof.ops:
                raise RuntimeError(
                    f"perf case {name!r} is non-deterministic: "
                    f"{ops} != {prof.ops}"
                )
        assert ops is not None
        ordered = sorted(walls)
        return {
            "ops": ops,
            "wall_seconds": {
                "repeats": walls,
                "median": ordered[len(ordered) // 2],
                "min": ordered[0],
                "max": ordered[-1],
            },
        }

    def run(self, label: str = "") -> dict[str, Any]:
        """Run every configured case; return one trajectory entry."""
        entry: dict[str, Any] = {
            "label": label,
            "timestamp": time.time(),
            "repeats": self.repeats,
            "cases": {},
        }
        for name in self.cases:
            entry["cases"][name] = self.run_case(name)
        return entry


# ----------------------------------------------------------------------
# Trajectory file I/O
# ----------------------------------------------------------------------
def load_trajectory(path: str | Path) -> dict[str, Any]:
    """Load (or initialize) the trajectory document at ``path``."""
    path = Path(path)
    if not path.exists():
        return {
            "kind": TRAJECTORY_KIND,
            "version": TRAJECTORY_VERSION,
            "entries": [],
        }
    doc = json.loads(path.read_text())
    if doc.get("kind") != TRAJECTORY_KIND:
        raise ValueError(
            f"not a perf trajectory: kind={doc.get('kind')!r} in {path}"
        )
    return doc


def append_entry(path: str | Path, entry: dict[str, Any]) -> dict[str, Any]:
    """Append one run to the trajectory file; returns the document."""
    path = Path(path)
    doc = load_trajectory(path)
    doc["entries"].append(entry)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return doc
