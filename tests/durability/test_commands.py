"""The command declaration: one decorator, one replay table, one park path.

A command is a public controller method whose arguments are its journal
record (:mod:`repro.commands`).  These tests hold the declaration to the
journal's closed kind set, round-trip every declared command through
the journal and ``_replay_command``, pin the re-entrancy rule (a nested
command writes no record), walk the park table, and keep a golden of
the marker sequence the two crash-harness scenarios emit.
"""

import pytest

import repro
from repro.commands import declared_commands
from repro.durability import DurabilityConfig
from repro.durability.harness import (
    SCENARIOS,
    _fleet_env,
    _service_env,
    digest,
    run_steps,
)
from repro.durability.journal import COMMAND_KINDS, JOURNAL_FILE, scan_journal
from repro.durability.recovery import _replay_command
from repro.errors import InfeasiblePlacementError, PlanningError
from repro.fleet import FleetController
from repro.resilience.degradation import ResilienceConfig
from repro.resources import ResourceConfig
from repro.service import AdmissionController, StreamQueryService


def journal(controller):
    records, _ = scan_journal(controller.durability.state_dir / JOURNAL_FILE)
    return records


def commands(controller):
    return [rec for rec in journal(controller) if rec["kind"] in COMMAND_KINDS]


def payloads(controller):
    """The journal without LSNs and CRCs."""
    return [(r["kind"], r["time"], r["data"]) for r in journal(controller)]


def operator_node(service):
    """A node hosting a join of some live query, off every endpoint."""
    endpoints = {spec.source for spec in service.rates.streams.values()}
    endpoints |= {d.query.sink for d in service.engine.state.deployments}
    for deployment in service.engine.state.deployments:
        for node in deployment.operator_nodes.values():
            if node not in endpoints:
                return node
    raise AssertionError("no operator off the endpoints; pick another seed")


# ----------------------------------------------------------------------
# (a) declared kinds == COMMAND_KINDS; every command round-trips
# ----------------------------------------------------------------------
def test_declared_kinds_are_the_journals_command_kinds():
    service = declared_commands(StreamQueryService)
    fleet = declared_commands(FleetController)
    assert set(service) | set(fleet) == COMMAND_KINDS
    assert service == {
        "cmd_submit": "submit",
        "cmd_tick": "tick",
        "cmd_retire": "retire",
        "cmd_node_failure": "handle_node_failure",
        "cmd_rejoin": "rejoin_node",
        "cmd_observe": "observe_rates",
    }
    assert fleet == {
        "cmd_submit": "submit",
        "cmd_tick": "tick",
        "cmd_retire": "retire",
        "cmd_rebalance": "rebalance",
    }


def service_calls(service, queries):
    """``name -> call``: every service command, each argument shape."""
    rates = {s: spec.rate * 2.0 for s, spec in service.rates.streams.items()}
    return {
        "submit": lambda: service.submit(queries[-1]),
        "submit_timed": lambda: service.submit(queries[-1], lifetime=3.0, time=7),
        "tick": lambda: service.tick(),
        "tick_timed": lambda: service.tick(time=9),
        "retire": lambda: service.retire(queries[0].name),
        "retire_unknown": lambda: service.retire("nobody"),
        "node_failure": lambda: service.handle_node_failure(operator_node(service)),
        "rejoin": lambda: service.rejoin_node(operator_node(service)),
        "observe": lambda: service.observe_rates(rates),
        "observe_timed": lambda: service.observe_rates(rates, time=4.5),
    }


SERVICE_CALLS = [
    "node_failure", "observe", "observe_timed", "rejoin", "retire",
    "retire_unknown", "submit", "submit_timed", "tick", "tick_timed",
]  # fmt: skip


@pytest.mark.parametrize("name", SERVICE_CALLS)
def test_service_command_round_trips(name, tmp_path):
    original, workload = _service_env(tmp_path / "a")
    twin, _ = _service_env(tmp_path / "b")
    queries = list(workload)
    for query in queries[:-1]:
        original.submit(query)
    original.tick()
    before = len(commands(original))
    calls = service_calls(original, queries)
    assert sorted(calls) == SERVICE_CALLS
    try:
        calls[name]()
    except repro.ReproError:
        pass  # journaled, then refused: replay refuses it the same way
    recorded = commands(original)
    assert len(recorded) == before + 1
    for rec in recorded:
        _replay_command(twin, rec)
    # Replaying through the declared methods journals the same records.
    assert payloads(twin) == payloads(original)
    assert digest(twin) == digest(original)


def fleet_calls(fleet, queries):
    return {
        "submit_tenant": lambda: fleet.submit(queries[-1], tenant="acme"),
        "submit_untenanted": lambda: fleet.submit(queries[-1], lifetime=2.0, time=6),
        "tick": lambda: fleet.tick(),
        "tick_timed": lambda: fleet.tick(time=8),
        "retire": lambda: fleet.retire(queries[0].name),
        "rebalance": lambda: fleet.rebalance(
            queries[0].name, 1 - fleet.shard_of(queries[0].name)
        ),
        "rebalance_bad_shard": lambda: fleet.rebalance(queries[0].name, 9),
    }


FLEET_CALLS = [
    "rebalance", "rebalance_bad_shard", "retire", "submit_tenant",
    "submit_untenanted", "tick", "tick_timed",
]  # fmt: skip


@pytest.mark.parametrize("name", FLEET_CALLS)
def test_fleet_command_round_trips(name, tmp_path):
    original, workload = _fleet_env(tmp_path / "a")
    twin, _ = _fleet_env(tmp_path / "b")
    queries = list(workload)
    for i, query in enumerate(queries[:-1]):
        original.submit(query, tenant=("acme", "umbrella")[i % 2])
    original.tick()
    before = len(commands(original))
    calls = fleet_calls(original, queries)
    assert sorted(calls) == FLEET_CALLS
    try:
        calls[name]()
    except repro.ReproError:
        pass
    recorded = commands(original)
    assert len(recorded) == before + 1
    assert ("tenant" in recorded[-1]["data"]) == (recorded[-1]["kind"] == "cmd_submit")
    for rec in recorded:
        _replay_command(twin, rec)
    assert payloads(twin) == payloads(original)
    assert digest(twin) == digest(original)


def test_tick_records_its_resolved_time(tmp_path):
    service, _ = _service_env(tmp_path / "s")
    service.tick()
    service.tick(time=5)
    ticks = [rec for rec in journal(service) if rec["kind"] == "cmd_tick"]
    assert [(rec["time"], rec["data"]) for rec in ticks] == [
        (1.0, {"time": 1.0}),
        (5.0, {"time": 5.0}),
    ]


def test_node_commands_without_a_hierarchy_journal_then_raise(tmp_path):
    """The one permitted journal difference (docs/durability.md)."""
    net = repro.transit_stub_by_size(16, seed=3)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=4, num_queries=2, joins_per_query=(1, 2)),
        seed=4,
    )
    rates = workload.rate_model()
    service = StreamQueryService(
        repro.make_optimizer("optimal", net, rates),
        net,
        rates,
        durability=DurabilityConfig(state_dir=str(tmp_path / "s")),
    )
    for call in (service.handle_node_failure, service.rejoin_node):
        with pytest.raises(repro.HierarchyError):
            call(3)
    assert [rec["kind"] for rec in journal(service)] == [
        "cmd_node_failure",
        "cmd_rejoin",
    ]
    assert service._in_command is False


# ----------------------------------------------------------------------
# (b) a nested command writes no record of its own
# ----------------------------------------------------------------------
class TestNestedCommands:
    def test_node_failure_resubmits_under_one_record(self, tmp_path):
        service, workload = _service_env(tmp_path / "s")
        for query in workload:
            service.submit(query)
        before = len(commands(service))
        report = service.handle_node_failure(operator_node(service))
        assert report.resubmitted  # the nested submit really ran
        added = commands(service)[before:]
        assert [rec["kind"] for rec in added] == ["cmd_node_failure"]
        assert service._in_command is False

    def test_fleet_submit_reaches_its_shard_under_one_record(self, tmp_path):
        fleet, workload = _fleet_env(tmp_path / "f")
        decision = fleet.submit(next(iter(workload)), tenant="acme")
        assert decision.admitted
        assert [rec["kind"] for rec in commands(fleet)] == ["cmd_submit"]
        assert all(shard.durability is None for shard in fleet.shards)

    def test_rebalance_retires_and_submits_under_one_record(self, tmp_path):
        fleet, workload = _fleet_env(tmp_path / "f")
        queries = list(workload)
        for query in queries[:4]:
            fleet.submit(query, tenant="acme")
        before = len(commands(fleet))
        name = queries[0].name
        report = fleet.rebalance(name, 1 - fleet.shard_of(name))
        assert report.moved
        added = commands(fleet)[before:]
        assert [rec["kind"] for rec in added] == ["cmd_rebalance"]
        assert fleet._in_command is False

    def test_a_failed_command_clears_the_bit(self, tmp_path):
        service, _ = _service_env(tmp_path / "s")
        with pytest.raises(repro.UnknownQueryError):
            service.retire("nobody")
        assert service._in_command is False
        service.tick()
        assert [rec["kind"] for rec in commands(service)] == ["cmd_retire", "cmd_tick"]


# ----------------------------------------------------------------------
# (c) the park table
# ----------------------------------------------------------------------
def park_service(tmp_path, resources: bool, resilience: bool):
    net = repro.transit_stub_by_size(24, seed=5)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=3, joins_per_query=(2, 3)),
        seed=6,
    )
    rates = workload.rate_model()
    hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
    service = StreamQueryService(
        repro.make_optimizer("top-down", net, rates, hierarchy=hierarchy),
        net,
        rates,
        hierarchy=hierarchy,
        admission=AdmissionController(budget=1),
        resilience=ResilienceConfig() if resilience else None,
        resources=ResourceConfig() if resources else None,
        durability=DurabilityConfig(state_dir=str(tmp_path / "state")),
    )
    return service, list(workload)


@pytest.mark.parametrize("site", ["submit", "tick"])
@pytest.mark.parametrize("armed", [True, False])
@pytest.mark.parametrize(
    "error, owner, other",
    [
        (InfeasiblePlacementError, "resources", "resilience"),
        (PlanningError, "resilience", "resources"),
    ],
)
def test_park_table(tmp_path, error, owner, other, armed, site):
    # The *other* layer is always armed: it must never catch the error.
    layers = {owner: armed, other: True}
    service, queries = park_service(tmp_path, **layers)
    victim = queries[1]
    deploy = service._deploy

    def failing(query, lifetime):
        if query.name == victim.name:
            raise error("no room")
        return deploy(query, lifetime)

    if site == "tick":
        # Budget 1: the victim queues behind q0 and drains next tick.
        service.submit(queries[0], lifetime=1.0)
        assert service.submit(victim).status.value == "queued"
    service._deploy = failing
    act = (lambda: service.submit(victim)) if site == "submit" else service.tick

    if not armed:
        with pytest.raises(error):
            act()
        assert not any(rec["kind"] == "park" for rec in journal(service))
        assert victim.name not in getattr(service, other).parked
        return

    outcome = act()
    if site == "submit":
        assert outcome.status.value == "queued"
        assert outcome.reason == "parked: no room"
    else:
        assert outcome.parked == [victim.name]
        assert victim.name not in outcome.deployed
    assert victim.name in getattr(service, owner).parked
    assert victim.name not in getattr(service, other).parked
    parks = [rec for rec in journal(service) if rec["kind"] == "park"]
    assert [rec["data"] for rec in parks] == [
        {"query": victim.name, "reason": "no room"}
    ]


# ----------------------------------------------------------------------
# (d) golden marker sequence of the crash-harness scenarios
# ----------------------------------------------------------------------
# ``kind keys*repeat`` per journal record, generated at the commit before
# the command declaration landed.  The crash matrix derives its crash
# points from whatever the journal holds, so it cannot notice a marker
# that moved, appeared or disappeared; this literal does.
GOLDEN = {
    "service": """
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_observe samples,time
        cmd_tick time
        migrate_begin operators,query,state_bytes
        migrate_phase phase,query *4
        migrate_commit operators,query
        migrate_begin operators,query,state_bytes
        migrate_phase phase,query *4
        migrate_commit operators,query
        tick_end deployed,migrated,retired
        cmd_observe samples,time
        cmd_tick time
        migrate_begin operators,query,state_bytes
        migrate_phase phase,query *4
        migrate_commit operators,query
        migrate_begin operators,query,state_bytes
        migrate_phase phase,query *4
        migrate_commit operators,query
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        snapshot file,lsn
        cmd_retire name
        retire query
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_node_failure node
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_rejoin node
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        snapshot file,lsn
    """,
    "fleet": """
        cmd_submit lifetime,query,tenant,time
        admit query,shard,status,tenant
        tenant_accounting in_flight,live,tenant
        cmd_submit lifetime,query,tenant,time
        admit query,shard,status,tenant
        tenant_accounting in_flight,live,tenant
        cmd_submit lifetime,query,tenant,time
        admit query,shard,status,tenant
        tenant_accounting in_flight,live,tenant
        cmd_submit lifetime,query,tenant,time
        admit query,shard,status,tenant
        tenant_accounting in_flight,live,tenant
        cmd_submit lifetime,query,tenant,time
        admit query,shard,status,tenant
        tenant_accounting in_flight,live,tenant
        cmd_submit lifetime,query,tenant,time
        admit query,shard,status,tenant
        tenant_accounting in_flight,live,tenant
        cmd_submit lifetime,query,tenant,time
        admit query,shard,status,tenant
        tenant_accounting in_flight,live,tenant
        cmd_submit lifetime,query,tenant,time
        admit query,shard,status,tenant
        tenant_accounting in_flight,live,tenant
        cmd_tick time
        federation_publish epoch,published
        tick_end deployed,retired
        cmd_submit lifetime,query,tenant,time
        admit query,shard,status,tenant
        tenant_accounting in_flight,live,tenant
        cmd_tick time
        tick_end deployed,retired
        cmd_tick time
        tick_end deployed,retired
        cmd_tick time
        tick_end deployed,retired
        cmd_retire name
        retire query
        tenant_accounting in_flight,live,tenant
        cmd_tick time
        tick_end deployed,retired
        cmd_tick time
        tick_end deployed,retired
        snapshot file,lsn
        cmd_rebalance name,target_shard
        migrate_begin query,source_shard,target_shard
        federation_withdraw epoch,promoted,withdrawn
        migrate_phase phase,query
        federation_publish epoch,published
        migrate_commit query,target_shard
        cmd_tick time
        tick_end deployed,retired
        cmd_tick time
        tick_end deployed,retired
        cmd_tick time
        tick_end deployed,retired
        cmd_tick time
        tick_end deployed,retired
    """,
    # Resilience + adaptivity + resources armed together (PR 24): the
    # injector's crash at t=6 retires a query whose resubmission parks
    # for capacity, drift repair sheds, and the parked one comes back.
    "layers": """
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_submit lifetime,query,time
        deploy lifetime,query
        admit query,reason,status
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_observe samples,time
        cmd_tick time
        migrate_begin operators,query,state_bytes
        migrate_phase phase,query *4
        migrate_commit operators,query
        migrate_begin operators,query,state_bytes
        migrate_phase phase,query *4
        migrate_commit operators,query
        tick_end deployed,migrated,retired
        cmd_observe samples,time
        cmd_tick time
        migrate_begin operators,query,state_bytes
        migrate_phase phase,query *4
        migrate_commit operators,query
        tick_end deployed,migrated,retired
        cmd_tick time
        park query,reason
        admit query,reason,status
        retire query *3
        deploy lifetime,query *2
        migrate_begin operators,query,state_bytes
        migrate_phase phase,query *4
        migrate_commit operators,query
        migrate_begin operators,query,state_bytes
        migrate_phase phase,query *4
        migrate_commit operators,query
        tick_end deployed,migrated,retired
        snapshot file,lsn
        cmd_retire name
        retire query
        cmd_tick time
        deploy lifetime,query
        migrate_begin operators,query,state_bytes
        migrate_phase phase,query *4
        migrate_commit operators,query
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
        snapshot file,lsn
        cmd_tick time
        tick_end deployed,migrated,retired
        cmd_tick time
        tick_end deployed,migrated,retired
    """,
}


def golden_rows(text):
    rows = []
    for line in text.split("\n"):
        if line.strip():
            row, _, repeat = line.strip().partition(" *")
            rows += [row] * int(repeat or 1)
    return rows


@pytest.mark.parametrize("scope", sorted(SCENARIOS))
def test_harness_journal_matches_the_golden_sequence(scope, tmp_path):
    scenario = SCENARIOS[scope]()
    controller = scenario.factory(tmp_path / "state")
    run_steps(scenario, controller)
    rows = [
        f"{rec['kind']} {','.join(sorted(rec['data']))}" for rec in journal(controller)
    ]
    assert rows == golden_rows(GOLDEN[scope])
