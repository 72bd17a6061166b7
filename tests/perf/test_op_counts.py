"""Exact op-count pins: the planner and control-plane work of nine cases.

Op counts are functions of the seeds alone, so each case's
``prof.ops`` is pinned *exactly*: a count that moves, or a counter that
appears or vanishes, fails here.  A change that moves a count on
purpose updates the pinned dict below and says in CHANGES.md which
count moved and why.  Wall clock is not measured here; it lives in
``benchmarks/e2e``.

Cases:

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
* ``fleet_twins`` -- the same fleet, then a twin of every query on
  another shard: the views a twin reads are imported, and only those.
* ``telemetry_overhead`` / ``durability_overhead`` /
  ``resource_overhead`` -- the churn script re-run with the telemetry
  pipeline (resp. the write-ahead journal, resp. the unbounded resource
  layer) armed; their planner op counts equal the bare service's
  (:class:`TestLayersAddNoPlannerWork`).
* ``idle_snapshot`` -- a snapshot with no command since the previous
  one: it encodes no item and writes the skeleton and the references.

The scenario lab's :class:`~repro.lab.runner.CandidateRun` wrapper is
held to the same contract against the plane its candidate builds
(:class:`TestLabWrapperAddsNoPlannerWork`).
"""

from __future__ import annotations

from typing import Callable

import pytest

from repro.perf.profiler import OpProfiler, profiled


# ----------------------------------------------------------------------
# Cases (each builds its own seeded environment)
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


def _case_service_churn(resubmit: bool = True) -> OpProfiler:
    service, workload = _churn_service()
    return _churn(service.submit, service.tick, workload, resubmit=resubmit)


def _churn_fleet():
    """``(fleet, workload)``: the churn world on a 3-shard hash fleet
    (budget 4, two deployments a tick per shard)."""
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
    return fleet, world.workload


def _case_fleet_churn() -> OpProfiler:
    """The churn script on a 3-shard fleet: besides the planner counts,
    what the federation's 30 syncs examined (``federation_keys_examined``,
    counted at the hook site) and imported -- nothing: no shard plans a
    query over another shard's views."""
    fleet, workload = _churn_fleet()
    prof = _churn(fleet.submit, fleet.tick, workload, resubmit=False)
    prof.count("federation_syncs", fleet.federation.syncs)
    prof.count("federation_imports", fleet.federation.imported_total)
    return prof


def _case_fleet_twins() -> OpProfiler:
    """The churn fleet, then a sink-shifted twin of every query once a
    sync has published the originals' views: twins hash to other shards,
    which import the published views they can read, and only those
    (copying every published view into every shard after each sync
    imported 80 here, with the same planner counts)."""
    fleet, workload = _churn_fleet()
    nodes = fleet.network.num_nodes
    with profiled() as prof:
        for i, query in enumerate(workload):
            fleet.submit(query, lifetime=4.0 + (i % 3))
        for _ in range(3):
            fleet.tick()
        for query in workload:
            fleet.submit(query.renamed(query.name + "_twin", sink=(query.sink + 5) % nodes))
        for _ in range(10):
            fleet.tick()
    prof.count("federation_imports", fleet.federation.imported_total)
    prof.count("cross_shard_reuse", fleet.cross_shard_reuse_total)
    return prof


def _case_telemetry_overhead() -> OpProfiler:
    """Service churn (no resubmissions) with the telemetry pipeline armed.

    The pipeline only reads instruments, so its planner op counts
    (plans, probes, ticks) match the bare service's exactly.
    ``telemetry_series_held`` is what the scrapes re-read, and
    ``rules_evaluated`` the rules re-derived because a reading moved.
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
    planner op counts (plans, probes, ticks) match ``service_churn``
    exactly.
    """
    import tempfile

    from repro.durability import DurabilityConfig

    with tempfile.TemporaryDirectory(prefix="repro-perf-wal-") as tmp:
        service, workload = _churn_service(
            durability=DurabilityConfig(state_dir=tmp, snapshot_interval=10)
        )
        prof = _churn(service.submit, service.tick, workload)
        prof.count("journal_records", service.durability.journal.lsn)
        prof.count("snapshots", service.durability.snapshots_total)
    return prof


def _case_idle_snapshot() -> OpProfiler:
    """The second of two snapshots with no command between them, of the
    churn service with its first ten submissions live: it encodes
    nothing, and writes the service's scalars, the layers' sections,
    the short core sections and a reference for each long one."""
    import tempfile

    from repro.durability import DurabilityConfig

    with tempfile.TemporaryDirectory(prefix="repro-perf-idle-") as tmp:
        service, workload = _churn_service(
            durability=DurabilityConfig(state_dir=tmp, snapshot_interval=10**6)
        )
        for query in workload:
            service.submit(query)
        for _ in range(5):
            service.tick()
        service.durability.snapshot(service.clock)
        with profiled() as prof:
            path = service.durability.snapshot(service.clock)
        assert prof.ops["snapshot_bytes_written"] == path.stat().st_size
        service.durability.journal.close()
    return prof


def _case_resource_overhead() -> OpProfiler:
    """Service churn with the resource layer armed but unbounded.

    With every capacity infinite the manager injects no constraint and
    gates nothing, so its planner op counts (plans, probes, ticks)
    match ``service_churn`` exactly.  Of its own counts,
    ``ledger_ops_priced`` is the ledger pricing each installed join
    once; ``joint_validations`` and ``join_loads_priced`` are the
    constrained search's work and read 0 here, because no constraint
    exists; ``node_gauges_written`` is one write per re-derived node
    ratio (all 32 whenever the set of loaded nodes changes: no
    capacities).
    """
    from repro.resources import ResourceConfig

    service, workload = _churn_service(resources=ResourceConfig())
    prof = _churn(service.submit, service.tick, workload)
    for key in ("joint_validations", "join_loads_priced"):
        prof.count(key, 0)
    return prof


CASES: dict[str, Callable[[], OpProfiler]] = {
    "plan_top_down": _case_plan_hierarchical("top-down"),
    "plan_bottom_up": _case_plan_hierarchical("bottom-up"),
    "plan_optimal": _case_plan_optimal,
    "deploy_protocol": _case_deploy_protocol,
    "service_churn": _case_service_churn,
    "fleet_churn": _case_fleet_churn,
    "fleet_twins": _case_fleet_twins,
    "telemetry_overhead": _case_telemetry_overhead,
    "durability_overhead": _case_durability_overhead,
    "idle_snapshot": _case_idle_snapshot,
    "resource_overhead": _case_resource_overhead,
}


# ----------------------------------------------------------------------
# The pins
# ----------------------------------------------------------------------
#: The churn script's planner work on the bare service.
_CHURN = {
    "cache_probes": 14,
    "ads_keys_examined": 36,
    "ads_views_probed": 17,
    "trees_enumerated": 132,
    "placements": 132,
    "cost_evaluations": 823,
    "search_array_passes": 77,
    "joins_built": 85,
    "service_ticks": 40,
    "expiry_entries_examined": 14,
}

#: The same without the four resubmissions and their 10 ticks.
_CHURN_NO_RESUBMIT = {
    **_CHURN,
    "cache_probes": 10,
    "service_ticks": 30,
    "expiry_entries_examined": 10,
}

PINS: dict[str, dict[str, int]] = {
    "plan_top_down": {
        "ads_views_probed": 0,
        "trees_enumerated": 86,
        "placements": 86,
        "cost_evaluations": 528,
        "search_array_passes": 58,
        "joins_built": 66,
    },
    "plan_bottom_up": {
        "ads_views_probed": 0,
        "trees_enumerated": 26,
        "placements": 26,
        "cost_evaluations": 299,
        "search_array_passes": 23,
        "joins_built": 22,
    },
    "plan_optimal": {"dp_subsets": 15, "cost_evaluations": 4192},
    "deploy_protocol": {"messages": 92, "protocol_tasks": 33},
    "service_churn": _CHURN,
    "fleet_churn": {
        "cache_probes": 10,
        "ads_keys_examined": 58,
        "ads_views_probed": 12,
        "trees_enumerated": 121,
        "placements": 121,
        "cost_evaluations": 774,
        "search_array_passes": 77,
        "joins_built": 87,
        "service_ticks": 90,
        "expiry_entries_examined": 10,
        "federation_keys_examined": 195,
        "federation_syncs": 30,
        "federation_imports": 0,
    },
    "fleet_twins": {
        "cache_probes": 18,
        "ads_keys_examined": 82,
        "ads_views_probed": 37,
        "trees_enumerated": 217,
        "placements": 217,
        "cost_evaluations": 1243,
        "search_array_passes": 123,
        "joins_built": 118,
        "service_ticks": 39,
        "expiry_entries_examined": 10,
        "federation_keys_examined": 232,
        "federation_imports": 12,
        "cross_shard_reuse": 4,
    },
    "telemetry_overhead": {
        **_CHURN_NO_RESUBMIT,
        "flow_prices_summed": 111,
        "telemetry_series_held": 148,
        "rules_evaluated": 71,  # of 30 ticks x 9 rules
        "telemetry_samples": 444,
        "telemetry_series": 16,
    },
    "durability_overhead": {
        **_CHURN,
        "snapshot_items_encoded": 37,
        "snapshot_bytes_written": 41817,
        "journal_records": 140,
        "snapshots": 4,
    },
    "idle_snapshot": {"snapshot_items_encoded": 0, "snapshot_bytes_written": 5011},
    "resource_overhead": {
        **_CHURN,
        "ledger_deployments_examined": 28,
        "ledger_records_examined": 78,
        "ledger_ops_priced": 39,
        "node_gauges_written": 544,
        "joint_validations": 0,
        "join_loads_priced": 0,
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_op_counts_are_pinned(name):
    assert CASES[name]().ops == PINS[name]


# ----------------------------------------------------------------------
# Parity: an armed layer or the lab wrapper adds no planner work
# ----------------------------------------------------------------------
def _without(ops: dict[str, int], keys: set[str]) -> dict[str, int]:
    return {k: v for k, v in ops.items() if k not in keys}


class TestLayersAddNoPlannerWork:
    """An armed layer's counts, less its own keys, are the bare
    service's on the same churn script, counted in the same run."""

    @pytest.mark.parametrize(
        "name, own_keys, resubmit",
        [
            pytest.param(
                "telemetry_overhead",
                {
                    "flow_prices_summed", "telemetry_series_held",
                    "telemetry_samples", "telemetry_series", "rules_evaluated",
                },
                False,
                id="telemetry_overhead",
            ),
            pytest.param(
                "durability_overhead",
                {
                    "journal_records", "snapshots", "snapshot_items_encoded",
                    "snapshot_bytes_written",
                },
                True,
                id="durability_overhead",
            ),
            pytest.param(
                "resource_overhead",
                {
                    "ledger_ops_priced", "joint_validations",
                    "join_loads_priced", "node_gauges_written",
                    "ledger_deployments_examined", "ledger_records_examined",
                },
                True,
                id="resource_overhead",
            ),
        ],
    )
    def test_planner_keys_equal_the_bare_service(self, name, own_keys, resubmit):
        bare = _case_service_churn(resubmit=resubmit).ops
        armed = CASES[name]().ops
        assert own_keys.isdisjoint(bare)
        assert _without(armed, own_keys) == bare


class TestLabWrapperAddsNoPlannerWork:
    """:class:`CandidateRun` only observes -- its telemetry pipeline
    scrapes instruments and its tick hook samples the cost integral --
    so driven by the churn script it does the planner work of the plane
    its candidate builds, driven by the same script."""

    #: What only the wrapper reads: its scrapes and the cost gauge.
    LAB_ONLY = {
        "telemetry_samples", "telemetry_series", "telemetry_series_held",
        "flow_prices_summed", "rules_evaluated",
    }

    @staticmethod
    def built():
        """A scenario hand-built around the churn cases' world (its
        max_cs=6 seeds are not reachable through build_scenario)."""
        from repro.lab.spec import (
            BuiltScenario,
            ScenarioSpec,
            TopologySpec,
            WorkloadSpec,
        )

        world = _hier_env(num_queries=10)
        spec = ScenarioSpec(
            name="lab_overhead",
            seed=7,
            ticks=40,
            topology=TopologySpec(nodes=world.network.num_nodes, max_cs=6),
            workload=WorkloadSpec(streams=10, queries=10),
        )
        return BuiltScenario(spec=spec, env=world)

    def test_wrapper_does_the_planes_planner_work(self):
        from repro.lab.candidate import Candidate
        from repro.lab.runner import CandidateRun

        candidate = Candidate(name="churn", ads=False, budget=4, max_per_tick=2)
        built = self.built()
        plane = candidate.build(built)
        bare = _churn(plane.submit, plane.tick, built.env.workload).ops

        built = self.built()
        run = CandidateRun(candidate, built)
        prof = _churn(run.submit, run.tick, built.env.workload)
        prof.count("telemetry_samples", run.telemetry.scraper.samples_total)
        prof.count("telemetry_series", len(run.telemetry.store))
        wrapped = prof.ops

        assert bare["trees_enumerated"] > 0
        assert self.LAB_ONLY.isdisjoint(bare)
        assert _without(wrapped, self.LAB_ONLY) == bare
        assert wrapped["telemetry_series"] > 0
        # The scraper re-read what changed, not every series every tick.
        assert 0 < wrapped["telemetry_series_held"] < wrapped["telemetry_samples"] // 2
