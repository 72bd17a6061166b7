"""A layer's section is kept while the layer's revision stands.

``capture_service`` / ``capture_fleet`` keep the text of every layer's
section but the federation's -- resilience (its breakers and jitter RNG
included), faults, adaptivity, resources, and the fleet's router and
scheduler -- for as long as the layer's ``revision`` stands.  Checked
against ``reference_capture``, byte for byte:

* each kind of change to a layer's captured fields, made after a
  snapshot whose memo holds the layer's text, shows in the next
  snapshot: a revision that failed to move would hand back the old text;
* a call that leaves the captured fields as they were (a closed
  breaker's success, a quiet tick) leaves the revisions standing;
* a warm snapshot of an unchanged layered plane calls no layer's
  ``capture()``, on a service and on a fleet with tenants;
* a section build that raises leaves the memo whole for the next
  capture.
"""

from collections import Counter

import pytest

import repro
import repro.durability.state as state_module
from repro.adaptive import AdaptivityConfig
from repro.adaptive.loop import AdaptivityLoop
from repro.durability import DurabilityConfig
from repro.durability.journal import canonical_json
from repro.errors import CoordinatorTimeout, InfeasiblePlacementError, PlanningError
from repro.fleet import FleetController
from repro.fleet.routing import QueryRouter
from repro.fleet.tenancy import PendingSubmit, WeightedFairScheduler
from repro.query.stream import StreamSpec
from repro.resilience.degradation import QUARANTINE_TICKS, ResilienceConfig, ResilientControl
from repro.resilience.faults import FaultInjector, FaultPlan, NodeCrash
from repro.resilience.policy import BreakerState
from repro.resources.manager import ResourceManager
from repro.service import StreamQueryService

from tests.conftest import three_sink_world
from tests.durability import reference_capture as reference
from tests.durability.test_snapshot_fragments import (
    _POOL,
    TENANTS,
    bounded,
    memo_items,
    snapshot_and_reference,
)

#: A rate sample moves an estimate all the way, and a drift publishes on
#: its second breaching check: the first grows a breach streak alone.
_ADAPT = AdaptivityConfig(
    alpha=1.0, hysteresis_ticks=2, publish_cooldown=0.0, query_cooldown=0.0
)
_DURABLE = dict(snapshot_interval=10**6)  # every snapshot below is taken by hand
_LAYER_CLASSES = (
    ResilientControl, FaultInjector, AdaptivityLoop, ResourceManager,
    QueryRouter, WeightedFairScheduler,
)


def build_service(state_dir, resources=True):
    """A service with every layer armed (a fault plan with a crash at
    t=1 and one at t=1000) and six of the pool's ten queries submitted."""
    net, hierarchy, rates, pool = three_sink_world(_POOL)
    ends = {spec.source for spec in rates.streams.values()} | {q.sink for q in pool}
    host = min(set(net.nodes()) - ends)
    plan = FaultPlan(events=[NodeCrash(time=1.0, node=host), NodeCrash(time=1000.0, node=host)])
    ads = repro.AdvertisementIndex(hierarchy)
    service = StreamQueryService(
        repro.TopDownOptimizer(hierarchy, rates, ads=ads),
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        resilience=ResilienceConfig(),
        faults=FaultInjector(plan),
        adaptivity=_ADAPT,
        resources=bounded(net) if resources else None,
        durability=DurabilityConfig(state_dir=str(state_dir), **_DURABLE),
    )
    for query in pool[:6]:
        service.submit(query)
    return service, pool


def build_fleet(state_dir):
    """A 2-shard tenant fleet (no federation), its shards with resilience
    and adaptivity armed, over-budget submissions waiting in the
    scheduler."""
    net, hierarchy, rates, pool = three_sink_world(_POOL)
    fleet = FleetController(
        2,
        net,
        rates,
        hierarchy,
        policy="subtree",
        budget=2,
        tenants=TENANTS,
        federation=False,
        service_kwargs={"resilience": ResilienceConfig(), "adaptivity": _ADAPT},
        durability=DurabilityConfig(state_dir=str(state_dir), **_DURABLE),
    )
    for index, query in enumerate(pool[:8]):
        fleet.submit(query, tenant=TENANTS[index % 3].name)
    return fleet, pool


def section(plane, name: str) -> str:
    """The reference capture's text of one top-level section of ``plane``."""
    fleet = isinstance(plane, FleetController)
    capture = reference.capture_fleet if fleet else reference.capture_service
    return canonical_json(capture(plane)[name])


def check(plane, name: str, change) -> None:
    """Make ``change`` between two snapshots: it must move the ``name``
    section, and the second snapshot must be the reference bytes."""
    got, want, _ = snapshot_and_reference(plane)
    assert got == want
    before = section(plane, name)
    change()
    assert section(plane, name) != before, f"the change left {name!r} as it was"
    got, want, _ = snapshot_and_reference(plane)
    assert got == want


def close(plane) -> None:
    plane.durability.journal.close()


# ----------------------------------------------------------------------
# Each kind of change shows in the next snapshot
# ----------------------------------------------------------------------
def test_every_resilience_change_shows_in_the_next_snapshot(tmp_path, monkeypatch):
    service, pool = build_service(tmp_path)
    control, now = service.resilience, service.clock
    board = control.breakers
    node = min(set(service.network.nodes()) - set(board.states()))

    check(service, "resilience", lambda: board.allow(node, now))  # a breaker created
    check(service, "resilience", lambda: control._record_failure(node, now))  # a failure run
    check(service, "resilience", lambda: board.record_success(node, now))  # ... ended
    revision = control.revision  # a closed breaker's success changes nothing
    board.record_success(node, now)
    assert control.revision == revision
    check(service, "resilience", lambda: [control._record_failure(node, now) for _ in range(3)])
    assert board.states()[node] is BreakerState.OPEN  # a trip
    check(service, "resilience", lambda: board.allow(node, now + board.recovery_time))
    assert board.states()[node] is BreakerState.HALF_OPEN  # a half-open probe
    check(service, "resilience", lambda: board.record_success(node, now))  # the probe closes

    # Park, unpark, and a readmission once the topology moved.
    query = pool[-1]
    check(service, "resilience", lambda: control.park(service, query, None, "probe"))
    check(service, "resilience", lambda: control.unpark(query.name))
    check(service, "resilience", lambda: control.park(service, query, 4.0, "probe"))
    service.bump_topology_epoch()
    check(service, "resilience", lambda: control.readmit_parked(service, []))

    # Quarantine of a flapping node, and its release.
    check(service, "resilience", lambda: [control._record_failure(node, now) for _ in range(3)])
    check(service, "resilience", lambda: control._quarantine_flapping(service, now))
    assert node in control.quarantined
    release = now + QUARANTINE_TICKS
    check(service, "resilience", lambda: control.release_quarantined(service, release))
    assert node not in control.quarantined

    # A retry: the retry counter and the jitter RNG its backoff draws from.
    errors = iter([CoordinatorTimeout("slow")])

    def flaky(query):
        error = next(errors, None)
        if error is not None:
            raise error
        return "planned"

    monkeypatch.setattr(service, "plan_feasible", flaky)
    state = control.rng.bit_generator.state
    check(
        service,
        "resilience",
        lambda: control._attempt(service, pool[-2], "hierarchical", None, now),
    )
    assert control.rng.bit_generator.state != state
    monkeypatch.undo()

    # A fallback: every coordinator rung is open, the baseline plans.
    query = pool[-2]
    for _, coordinator in control._rungs(service, query):
        if coordinator is not None:
            for _ in range(3):
                control._record_failure(coordinator, now)
    check(service, "resilience", lambda: control.plan(service, query))
    assert query.name in control.degraded_queries
    close(service)


def test_every_fault_injector_change_shows_in_the_next_snapshot(tmp_path):
    service, _ = build_service(tmp_path)
    faults = service.faults
    check(service, "faults", service.tick)  # the t=1 crash, applied
    assert faults.crashed
    check(service, "faults", lambda: faults.due_events(2000.0))  # consumed alone
    check(service, "faults", lambda: faults.note_applied("probe", service.clock, node=0))
    close(service)


def test_every_adaptivity_change_shows_in_the_next_snapshot(tmp_path):
    service, _ = build_service(tmp_path)
    loop = service.adaptivity
    monitor = loop.monitor
    base = {name: spec.rate for name, spec in service.rates.streams.items()}
    drifted = {**base, min(base): base[min(base)] * 2.0}

    check(service, "adaptivity", lambda: service.observe_rates(drifted))  # a rate sample
    check(service, "adaptivity", lambda: monitor.maybe_publish(service.clock))  # a streak grows
    assert monitor.publications == 0
    check(service, "adaptivity", lambda: service.observe_rates(base))
    check(service, "adaptivity", lambda: monitor.maybe_publish(service.clock))  # ... and ends
    service.bump_topology_epoch()  # a re-evaluation pass
    check(service, "adaptivity", lambda: loop.step(service, service.clock))
    service.observe_rates(drifted)
    service.tick()
    service.observe_rates(drifted)
    check(service, "adaptivity", service.tick)  # a publication
    assert monitor.publications == 1
    close(service)


def test_every_resource_manager_change_shows_in_the_next_snapshot(tmp_path, monkeypatch):
    service, pool = build_service(tmp_path)
    manager, now = service.resources, service.clock
    for name in list(manager.parked):  # an empty lot to start from
        manager.unpark(name)
    query = pool[-1]
    check(service, "resources", lambda: manager.park(service, query, None, "probe"))
    check(service, "resources", lambda: manager.unpark(query.name))

    def infeasible(*args):
        raise InfeasiblePlacementError("nothing fits")

    monkeypatch.setattr(service, "plan", infeasible)
    check(
        service,
        "resources",
        lambda: pytest.raises(InfeasiblePlacementError, manager.plan_feasible, service, query),
    )
    monkeypatch.undo()
    monkeypatch.setattr(manager, "check", lambda query, deployment: [(0, 9.0)])
    unplanned = type("Unplanned", (), {"stats": {}})()
    check(
        service,
        "resources",
        lambda: pytest.raises(InfeasiblePlacementError, manager.gate, service, query, unplanned),
    )
    monkeypatch.undo()

    # A failed re-admission sends a query to the back of the lot.
    for parked in pool[-3:]:
        manager.park(service, parked, None, "probe")

    def refused(query, lifetime):
        raise PlanningError("refused")

    monkeypatch.setattr(service, "_deploy", refused)
    check(service, "resources", lambda: manager.step(service, now))
    assert list(manager.parked) == [q.name for q in pool[-1:] + pool[-3:-1]]
    monkeypatch.undo()

    # A re-admission once capacity is back.
    for live in list(service.live_queries):
        service.retire(live)
    check(service, "resources", lambda: manager.step(service, now))
    assert manager.readmitted_total

    # A shed: rates quadruple under the deployed queries.
    streams = {
        name: StreamSpec(name, spec.source, spec.rate * 4.0)
        for name, spec in service.rates.streams.items()
    }
    service.rates.update_streams(streams)
    service.engine.refresh_rates(now)
    check(service, "resources", lambda: manager.repair(service))
    assert manager.shed_total
    close(service)


def test_every_router_and_scheduler_change_shows_in_the_next_snapshot(tmp_path):
    fleet, pool = build_fleet(tmp_path)
    scheduler, router = fleet.scheduler, fleet.router
    assert scheduler.total_backlog
    query = pool[-1]
    waiting = PendingSubmit(query, None, 0)
    check(fleet, "scheduler", lambda: scheduler.enqueue("w1", waiting))
    check(fleet, "scheduler", scheduler.pick)
    check(fleet, "scheduler", lambda: scheduler.enqueue("w1", waiting))
    check(fleet, "scheduler", lambda: scheduler.withdraw("w1", lambda item: item is waiting))

    check(fleet, "router", lambda: router.route(query))
    check(fleet, "router", lambda: router.bind(query.name, 0))
    check(fleet, "router", lambda: router.rebind(query.name, 1))
    check(fleet, "router", lambda: router.release(query.name))
    close(fleet)


# ----------------------------------------------------------------------
# An unchanged layer is not captured again
# ----------------------------------------------------------------------
def spy_captures(monkeypatch, plane) -> Counter:
    """Counts, by class, the layers' ``capture()`` calls that ``plane``'s
    snapshots make (the reference capture reads the fields itself)."""
    calls: Counter = Counter()
    armed = [False]
    for cls in _LAYER_CLASSES:

        def spy(layer, capture=cls.capture):
            calls[type(layer).__name__] += armed[0]
            return capture(layer)

        monkeypatch.setattr(cls, "capture", spy)
    snapshot = plane.durability.snapshot

    def counted_snapshot(time):
        armed[0] = True
        try:
            return snapshot(time)
        finally:
            armed[0] = False

    monkeypatch.setattr(plane.durability, "snapshot", counted_snapshot)
    return calls


def captured(plane, calls: Counter) -> dict[str, int]:
    """The layer captures of one snapshot of ``plane``, checked against
    the reference bytes."""
    calls.clear()
    got, want, _ = snapshot_and_reference(plane)
    assert got == want
    return +calls


def test_a_warm_snapshot_of_an_unchanged_service_captures_no_layer(tmp_path, monkeypatch):
    service, _ = build_service(tmp_path, resources=False)
    calls = spy_captures(monkeypatch, service)
    every = dict.fromkeys(["ResilientControl", "FaultInjector", "AdaptivityLoop"], 1)
    assert captured(service, calls) == every
    assert captured(service, calls) == {}
    assert captured(service, calls) == {}
    service.tick()  # the t=1 crash: faults and resilience move
    captured(service, calls)
    assert captured(service, calls) == {}
    service.tick()  # nothing due, nothing parked or drifting: a quiet tick
    assert captured(service, calls) == {}
    service.observe_rates({name: spec.rate for name, spec in service.rates.streams.items()})
    assert captured(service, calls) == {"AdaptivityLoop": 1}
    close(service)


def test_a_warm_snapshot_of_an_unchanged_fleet_captures_no_layer(tmp_path, monkeypatch):
    fleet, _ = build_fleet(tmp_path)
    calls = spy_captures(monkeypatch, fleet)
    assert captured(fleet, calls) == {
        "QueryRouter": 1, "WeightedFairScheduler": 1,
        "ResilientControl": 2, "AdaptivityLoop": 2,
    }
    assert captured(fleet, calls) == {}
    assert captured(fleet, calls) == {}
    close(fleet)


# ----------------------------------------------------------------------
# A build that raises
# ----------------------------------------------------------------------
def test_a_section_build_that_raises_leaves_the_memo_whole(tmp_path, monkeypatch):
    service, pool = build_service(tmp_path, resources=False)
    snapshot_and_reference(service)
    service.submit(pool[6])  # the deployment state's section is built again
    build = state_module._deployment_state_doc

    def broken(state, memo):
        build(state, memo)
        raise RuntimeError("the build failed")

    monkeypatch.setattr(state_module, "_deployment_state_doc", broken)
    with pytest.raises(RuntimeError, match="the build failed"):
        service.durability.snapshot(service.clock)
    monkeypatch.undo()
    got, want, _ = snapshot_and_reference(service)
    assert got == want
    state, memo = service.engine.state, service.durability._memo
    assert memo_items(memo) == (
        state.num_deployments + state.num_operators + len(state.flows())
        + len(service.cache) + 1  # the network section
    )
    close(service)
