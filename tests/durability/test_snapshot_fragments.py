"""Incremental snapshots against the literal capture, byte for byte.

``repro.durability.state`` keeps the canonical JSON text of every
deployment, operator record, flow, cached plan, federation import and of
the network section between snapshots, and re-encodes an item only when
something its text reads has changed; ``reference_capture`` builds every
dict again and runs the whole envelope through ``json.dumps``.  Two
layers of evidence that both write the same file:

* hypothesis state machines over everything that moves captured state
  -- submit, tick, retire, plan-cache hit / LRU reorder / eviction, a
  statistics publication, a drift migration, a link repricing, node
  failure and rejoin on a service with every layer armed; rebalance and
  the federation's import / withdraw / promote on a 2-shard fleet --
  taking a snapshot after every command and comparing the file with the
  reference bytes, and failing unless each of those transitions (and
  each part of an operator record's validity: rate, holders, installer
  still deployed) was exercised on an item the memo already held;
* a work-count gate at 200 live: an unchanged state encodes nothing, a
  submit encodes exactly what it touched, a statistics publication
  re-encodes operators and flows but no deployment -- so an O(live)
  regression fails without a clock; and a spy on the deployment
  state's walks and the section builders: a snapshot with no command
  since the previous one walks no deployment, operator record or flow,
  builds no cluster or rates document and visits no cached plan, per
  shard under a fleet.
"""

import itertools
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

import repro
import repro.durability.state as state_module
from repro.adaptive import AdaptivityConfig
from repro.durability import DurabilityConfig
from repro.durability.state import _origin_is_live
from repro.fleet import FleetController, Tenant
from repro.perf.profiler import profiled
from repro.query.deployment import DeploymentState
from repro.query.stream import StreamSpec
from repro.resilience.degradation import ResilienceConfig
from repro.resources import ResourceConfig, uniform_capacities
from repro.service import PlanCache, StreamQueryService

from tests.conftest import three_sink_world
from tests.durability import reference_capture as reference

_POOL = 10
#: Tight enough that queries park.
_CAPS = dict(cpu=600.0, memory=400.0, bandwidth=800.0)
#: Publish on the first breaching tick and migrate on any gain.
_ADAPT = AdaptivityConfig(
    alpha=1.0,
    hysteresis_ticks=1,
    publish_cooldown=0.0,
    query_cooldown=0.0,
    min_relative_gain=0.0,
    horizon=1e9,
)


def bounded(net) -> ResourceConfig:
    return ResourceConfig(capacities=uniform_capacities(net, **_CAPS))


#: Three tenants of different weights: pool query ``i`` is submitted
#: by tenant ``w{1 + i % 3}``.
TENANTS = [Tenant(f"w{k}", weight=float(k)) for k in (1, 2, 3)]


def snapshot_and_reference(plane) -> tuple[bytes, bytes, int]:
    """One snapshot of ``plane``: the file's bytes, the reference's bytes
    for the same state, and how many items the capture encoded."""
    durability = plane.durability
    lsn = durability.journal.lsn
    with profiled() as prof:
        path = durability.snapshot(plane.clock)
    capture = (
        reference.capture_fleet
        if durability.scope == "fleet"
        else reference.capture_service
    )
    want = reference.snapshot_bytes(lsn, durability.scope, capture(plane), plane.clock)
    return path.read_bytes(), want, prof.ops["snapshot_items_encoded"]


class SnapshotMachine(RuleBasedStateMachine):
    """Rules shared by the service and the fleet machine."""

    #: What the explored examples exercised, summed over a whole run.
    seen: Counter

    def __init__(self) -> None:
        super().__init__()
        self.net, self.hierarchy, self.rates, self.pool = three_sink_world(_POOL)
        self.state_dir = Path(tempfile.mkdtemp(prefix="repro-fragments-"))
        self.serial = itertools.count()
        #: (shard, install serial) -> what each operator record's text
        #: read at the previous snapshot.
        self.records: dict[tuple[int, int], tuple] = {}
        #: What each kept section read at the previous snapshot.
        self.sections: list = []
        self.build(
            # Never on its own: every snapshot below is taken by hand.
            DurabilityConfig(state_dir=str(self.state_dir), snapshot_interval=10**6)
        )
        # Every example starts from a busy plane, so the first drawn
        # rules already have something to hit, evict, fail or migrate.
        for index in range(_POOL):
            self.submit(index, None if index % 2 else 6.0)
            self.file_is_the_reference_bytes()

    def build(self, durability: DurabilityConfig) -> None:  # pragma: no cover
        raise NotImplementedError

    def submitter(self, index: int) -> dict:
        """Extra ``submit`` arguments for pool query ``index``."""
        return {}

    @rule(index=st.integers(0, _POOL - 1), lifetime=st.sampled_from([None, 2.0, 6.0]))
    def submit(self, index, lifetime):
        # A fresh name every time: same-shape resubmissions hit the plan
        # cache and reuse deployed views, which is where holders change
        # and operators outlive their installer.
        query = self.pool[index].renamed(f"{self.pool[index].name}#{next(self.serial) % 64}")
        if query.name in self.plane.live_queries:
            return
        before = [(list(s.cache._entries), s.cache.hits) for s in self.services]
        self.plane.submit(query, lifetime=lifetime, **self.submitter(index))
        for service, (order, hits) in zip(self.services, before):
            now = list(service.cache._entries)
            if service.cache.hits > hits and now != order and sorted(now) == sorted(order):
                self.seen["lru_reorders"] += 1

    @rule(data=st.data())
    def twin(self, data):
        # The shape of a live query again: a plan-cache hit while the
        # epochs stand, and an LRU reorder unless it was the latest entry.
        live = sorted(self.plane.live_queries)
        if live:
            shape = data.draw(st.sampled_from(live)).split("#")[0]
            self.submit([query.name for query in self.pool].index(shape), 2.0)

    @rule(data=st.data())
    def retire(self, data):
        live = sorted(self.plane.live_queries)
        if live:
            self.plane.retire(data.draw(st.sampled_from(live)))

    @rule()
    def tick(self):
        self.plane.tick()

    @rule(stream=st.integers(0, 5), factor=st.sampled_from([0.5, 2.0]))
    def publish_drift(self, stream, factor):
        samples = {name: spec.rate for name, spec in self.rates.streams.items()}
        samples[sorted(samples)[stream]] *= factor
        for service in self.services:
            service.observe_rates(samples)
        self.plane.tick()

    @rule(data=st.data(), factor=st.sampled_from([0.5, 2.0]))
    def reprice_link(self, data, factor):
        link = data.draw(st.sampled_from(self.net.links()))
        self.net.set_link_cost(link.u, link.v, link.cost * factor)
        self.seen["network_versions"] += 1
        self.plane.tick()

    @invariant()
    def file_is_the_reference_bytes(self):
        got, want, encoded = snapshot_and_reference(self.plane)
        assert got == want
        items = 1 + sum(  # the network section is one more item
            s.engine.state.num_deployments
            + s.engine.state.num_operators
            + len(s.engine.state.flows())
            + len(s.cache)
            for s in self.services
        )
        self.seen["items_kept"] += items - encoded
        self.note_operator_transitions()
        self.note_section_transitions()

    def note_operator_transitions(self) -> None:
        """Which parts of a kept operator record's validity moved."""
        records = {}
        for shard, service in enumerate(self.services):
            state = service.engine.state
            for rec in state.operator_records():
                now = (rec.rate, frozenset(rec.queries), _origin_is_live(state, rec.origin))
                records[shard, rec.serial] = now
                was = self.records.get((shard, rec.serial), now)
                self.seen["rate_changes"] += was[0] != now[0]
                self.seen["holder_changes"] += was[1] != now[1]
                self.seen["installer_retirements"] += was[2] and not now[2]
        self.records = records

    def note_section_transitions(self) -> None:
        """Which kept sections (hierarchy, rates, each plan cache's
        entries) a command moved since the previous snapshot."""
        now = [self.hierarchy.revision, self.rates.version] + [
            (list(s.cache._entries), s.cache.hits, s.cache.evictions) for s in self.services
        ]
        was = self.sections or now
        self.seen["held_hierarchy_edits"] += was[0] != now[0]
        self.seen["held_publications"] += was[1] != now[1]
        for (order, hits, evictions), (order_now, hits_now, evictions_now) in zip(was[2:], now[2:]):
            self.seen["held_cache_puts"] += bool(set(order_now) - set(order))
            self.seen["held_cache_reorders"] += (
                hits_now > hits and order_now != order and sorted(order_now) == sorted(order)
            )
            self.seen["held_cache_evictions"] += evictions_now > evictions
        self.sections = now

    def teardown(self):
        self.seen["cache_hits"] += sum(s.cache.hits for s in self.services)
        self.seen["cache_evictions"] += sum(s.cache.evictions for s in self.services)
        self.seen["publications"] += self.rates.version
        self.seen["migrations"] += sum(
            s.adaptivity.summary()["migrations_committed"] for s in self.services
        )
        self.plane.durability.journal.close()
        shutil.rmtree(self.state_dir)


class ServiceSnapshotMachine(SnapshotMachine):
    """One service with every layer armed, a plan cache small enough to
    evict, and node failure / rejoin."""

    def build(self, durability: DurabilityConfig) -> None:
        ads = repro.AdvertisementIndex(self.hierarchy)
        optimizer = repro.TopDownOptimizer(self.hierarchy, self.rates, ads=ads)
        self.plane = StreamQueryService(
            optimizer,
            self.net,
            self.rates,
            hierarchy=self.hierarchy,
            ads=ads,
            cache=PlanCache(capacity=3),
            resilience=ResilienceConfig(),
            adaptivity=_ADAPT,
            resources=bounded(self.net),
            durability=durability,
        )
        self.services = [self.plane]
        self.failed: list[int] = []

    @rule(data=st.data())
    def fail_node(self, data):
        # Sources and sinks stay up, so every pool query stays plannable.
        pinned = {spec.source for spec in self.rates.streams.values()}
        pinned |= {query.sink for query in self.pool}
        hosts = sorted(set(self.plane.resources.ledger.node_loads()) - pinned)
        if hosts and len(self.failed) < 2:
            self.failed.append(data.draw(st.sampled_from(hosts)))
            self.seen["failovers"] += 1
            self.plane.handle_node_failure(self.failed[-1])

    @rule()
    def rejoin(self):
        if self.failed:
            self.seen["rejoins"] += self.plane.rejoin_node(self.failed.pop())


class FleetSnapshotMachine(SnapshotMachine):
    """Two hash-routed shards; the federation plants one shard's views
    in the other as imports, withdraws and promotes them."""

    def build(self, durability: DurabilityConfig) -> None:
        self.plane = FleetController(
            2,
            self.net,
            self.rates,
            self.hierarchy,
            policy="hash",
            federation=True,
            service_kwargs={"adaptivity": _ADAPT},
            tenants=TENANTS,
            resources=bounded(self.net),
            durability=durability,
        )
        self.services = self.plane.shards

    def submitter(self, index: int) -> dict:
        return {"tenant": TENANTS[index % 3].name}

    @rule(data=st.data())
    def rebalance(self, data):
        live = sorted(self.plane.live_queries)
        if live:
            name = data.draw(st.sampled_from(live))
            self.plane.rebalance(name, 1 - self.plane.shard_of(name))

    def teardown(self):
        federation = self.plane.federation
        self.seen["imports"] += federation.imported_total
        self.seen["withdrawals"] += federation.withdrawn_total
        self.seen["promotions"] += federation.promoted_total
        super().teardown()


#: Derandomized: the same examples every run, so the transitions the
#: tests below insist on having been exercised are exercised every run.
_MACHINE = settings(
    max_examples=10, stateful_step_count=25, deadline=None, derandomize=True
)
_SHARED = (
    "items_kept", "cache_hits", "lru_reorders", "publications", "network_versions",
    "rate_changes", "holder_changes", "installer_retirements",
    "held_publications", "held_cache_puts", "held_cache_reorders",
)


def test_service_snapshots_are_the_reference_bytes_after_every_command():
    ServiceSnapshotMachine.seen = seen = Counter()
    run_state_machine_as_test(ServiceSnapshotMachine, settings=_MACHINE)
    for transition in _SHARED + (
        "cache_evictions", "migrations", "failovers", "rejoins",
        "held_hierarchy_edits", "held_cache_evictions",
    ):
        assert seen[transition], f"no example exercised {transition}: {dict(seen)}"


def test_fleet_snapshots_are_the_reference_bytes_after_every_command():
    FleetSnapshotMachine.seen = seen = Counter()
    run_state_machine_as_test(FleetSnapshotMachine, settings=_MACHINE)
    for transition in _SHARED + ("imports", "withdrawals", "promotions"):
        assert seen[transition], f"no example exercised {transition}: {dict(seen)}"


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
_WALKS = ("operator_records", "flows", "deployments")
#: The builders of a hierarchy's cluster document, a rate model's
#: document and a plan cache's entries (a call visits every cached plan).
_BUILDERS = ("capture_hierarchy", "capture_rates", "_cache_entries")


class WalkSpy:
    """Counts, per deployment state, the calls of :data:`_WALKS` that
    ``plane``'s snapshots make (the reference capture's are not counted),
    and per owner the calls of :data:`_BUILDERS`."""

    def __init__(self, monkeypatch, plane) -> None:
        self.calls: Counter = Counter()
        self.armed = False
        for name in _WALKS:
            member = DeploymentState.__dict__[name]
            walk = member.fget if isinstance(member, property) else member
            spy = self._spy(name, walk)
            monkeypatch.setattr(
                DeploymentState, name, property(spy) if isinstance(member, property) else spy
            )
        for name in _BUILDERS:
            monkeypatch.setattr(state_module, name, self._spy(name, getattr(state_module, name)))
        snapshot = plane.durability.snapshot

        def counted_snapshot(time):
            self.armed = True
            try:
                return snapshot(time)
            finally:
                self.armed = False

        monkeypatch.setattr(plane.durability, "snapshot", counted_snapshot)

    def _spy(self, name, walk):
        def spy(state, *args):
            if self.armed:
                self.calls[id(state), name] += 1
            return walk(state, *args)

        return spy

    def take(self, state) -> dict[str, int]:
        """The walks of ``state`` since the last take, by method."""
        return {name: self.calls.pop((id(state), name), 0) for name in _WALKS}

    def built(self, hierarchy, rates, *caches) -> list[int]:
        """The builds of each owner's section since the last ``built``."""
        owners = [("capture_hierarchy", hierarchy), ("capture_rates", rates)]
        owners += [("_cache_entries", cache) for cache in caches]
        return [self.calls.pop((id(owner), name), 0) for name, owner in owners]


_NONE = dict.fromkeys(_WALKS, 0)
_ONCE = dict.fromkeys(_WALKS, 1)


def _world(live: int):
    """A 64-node world and ``live + 1`` queries: a fill and one more."""
    net = repro.transit_stub_by_size(64, seed=3)
    hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(
            num_streams=10, num_queries=live + 1, joins_per_query=(1, 3)
        ),
        seed=4,
    )
    return net, hierarchy, workload


class TestWorkCounts:
    def test_a_snapshot_encodes_what_changed_not_what_is_live(self, tmp_path):
        net, hierarchy, workload = _world(200)
        rates = workload.rate_model()
        ads = repro.AdvertisementIndex(hierarchy)
        service = StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates, ads=ads),
            net,
            rates,
            hierarchy=hierarchy,
            ads=ads,
            admission=repro.AdmissionController(budget=256),
            durability=DurabilityConfig(
                state_dir=str(tmp_path), snapshot_interval=10**6
            ),
        )
        *fill, last = workload
        for query in fill:
            service.submit(query)
        state, cache = service.engine.state, service.cache
        assert state.num_deployments == 200

        def items() -> int:
            return (
                state.num_deployments + state.num_operators + len(state.flows())
                + len(cache) + 1  # the network section
            )

        def encoded() -> int:
            got, want, count = snapshot_and_reference(service)
            assert got == want
            # Only what the capture met is kept: retired items are gone.
            assert len(service.durability._memo._kept) == items()
            return count

        # The first snapshot of a process is full price: every item once.
        assert encoded() == items()
        assert encoded() == 0
        for _ in range(5):
            service.tick()
        assert encoded() == 0

        # One submit: its deployment, its cached plan when it had to be
        # planned, its flows, and the operator records it installed or
        # attached to.
        planned = cache.misses
        service.submit(last)
        touched = sum(last.name in rec.queries for rec in state.operator_records())
        assert touched >= max(1, len(state.deployment(last.name).plan.joins()))
        assert encoded() == (
            1 + (cache.misses - planned) + len(state._flows[last.name]) + touched
        )

        # A statistics publication rebuilds every flow and re-rates the
        # operators, and leaves every deployment's text standing.
        rated = {id(rec): rec.rate for rec in state.operator_records()}
        specs = dict(rates.streams)
        name, spec = next(iter(specs.items()))
        specs[name] = StreamSpec(name, spec.source, spec.rate * 2.0)
        rates.update_streams(specs)
        service.engine.refresh_rates(service.clock)  # what the adaptivity loop does
        moved = sum(rated[id(rec)] != rec.rate for rec in state.operator_records())
        assert moved > 0
        assert encoded() == len(state.flows()) + moved

        # Retirements encode nothing new: only the surviving operator
        # records that lost a holder are encoded again.
        held = {rec.serial: set(rec.queries) for rec in state.operator_records()}
        for query in fill[:50]:
            service.retire(query.name)
        assert encoded() == sum(
            held[rec.serial] != rec.queries for rec in state.operator_records()
        )
        service.durability.journal.close()

    def test_a_state_section_is_kept_while_its_revision_stands(
        self, tmp_path, monkeypatch
    ):
        net, hierarchy, workload = _world(60)
        rates = workload.rate_model()
        service = StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates),
            net,
            rates,
            hierarchy=hierarchy,
            admission=repro.AdmissionController(budget=256),
            durability=DurabilityConfig(
                state_dir=str(tmp_path), snapshot_interval=10**6
            ),
        )
        *fill, last = workload
        for query in fill:
            service.submit(query)
        state, memo = service.engine.state, service.durability._memo
        assert state.num_deployments == 60
        spy = WalkSpy(monkeypatch, service)

        def items() -> int:
            return (
                state.num_deployments + state.num_operators + len(state.flows())
                + len(service.cache) + 1  # the network section
            )

        def walks() -> dict[str, int]:
            got, want, _ = snapshot_and_reference(service)
            assert got == want
            assert len(memo._kept) == items()
            return spy.take(state)

        def built() -> list[int]:  # cluster document, rates, cache entries
            return spy.built(hierarchy, rates, service.cache)

        assert walks() == _ONCE
        assert built() == [1, 1, 1]
        assert walks() == _NONE  # no command since: the section is kept
        assert built() == [0, 0, 0]
        assert walks() == _NONE
        assert built() == [0, 0, 0]
        # A kept section still holds its items' text: a submit after it
        # encodes only what the submit touched, and walks once.
        revision = state.revision
        service.submit(last)
        assert state.revision > revision
        assert walks() == _ONCE
        assert built() == [0, 0, 1]  # a plan-cache put
        assert walks() == _NONE
        assert built() == [0, 0, 0]
        service.tick()  # a tick that retires nothing changes nothing
        assert walks() == _NONE
        assert built() == [0, 0, 0]
        service.retire(fill[0].name)
        assert walks() == _ONCE
        assert built() == [0, 0, 0]
        # A statistics publication and a node failure build their own
        # section once, and nothing while no command follows.
        specs = dict(rates.streams)
        name, spec = next(iter(specs.items()))
        specs[name] = StreamSpec(name, spec.source, spec.rate * 2.0)
        rates.update_streams(specs)
        walks()
        assert built() == [0, 1, 0]
        assert walks() == _NONE
        assert built() == [0, 0, 0]
        deployments = state.deployments
        ends = set().union(*(rates.endpoints(d.query) for d in deployments))
        hosts = {n for d in deployments for n in d.operator_nodes.values()} - ends
        service.handle_node_failure(min(hosts))
        walks()
        assert built()[0] == 1
        assert walks() == _NONE
        assert built() == [0, 0, 0]
        service.durability.journal.close()

    def test_each_shard_section_is_kept_on_its_own(self, tmp_path, monkeypatch):
        net, hierarchy, workload = _world(30)
        rates = workload.rate_model()
        fleet = FleetController(
            2,
            net,
            rates,
            hierarchy,
            policy="hash",
            budget=64,
            durability=DurabilityConfig(
                state_dir=str(tmp_path), snapshot_interval=10**6
            ),
        )
        *fill, last = workload
        for query in fill:
            fleet.submit(query)
        states = [shard.engine.state for shard in fleet.shards]
        assert len(fleet.live_queries) == 30
        assert all(state.num_deployments for state in states)
        spy = WalkSpy(monkeypatch, fleet)

        def walks() -> list[dict[str, int]]:
            got, want, _ = snapshot_and_reference(fleet)
            assert got == want
            return [spy.take(state) for state in states]

        def built() -> list[int]:  # cluster document, rates, each shard's cache
            return spy.built(hierarchy, rates, *(shard.cache for shard in fleet.shards))

        assert walks() == [_ONCE, _ONCE]
        assert built() == [1, 1, 1, 1]
        assert walks() == [_NONE, _NONE]
        assert built() == [0, 0, 0, 0]
        fleet.submit(last)
        changed = fleet.shard_of(last.name)
        want = [_NONE, _NONE]
        want[changed] = _ONCE
        assert walks() == want
        want = [0, 0, 0, 0]
        want[2 + changed] = 1
        assert built() == want
        assert walks() == [_NONE, _NONE]
        assert built() == [0, 0, 0, 0]
        fleet.durability.journal.close()
