"""The ledger's incremental books against the derive-everything model.

Three layers of evidence that :class:`repro.resources.ResourceLedger`
(O(delta) books, reconciled lazily) is the same function of the attached
deployment states as ``reference_ledger.ReferenceLedger`` (walks and
prices everything on every call):

* pinned regressions for the pricing rules the old derive-on-call
  ledger got wrong (orphan pricing depended on call history and on the
  hash seed);
* hypothesis state machines over the whole command surface -- a
  service under tight capacities with adaptivity, and a 2-shard fleet
  sharing one ledger through the federation -- asserting exact equality
  after every command;
* a work-count gate: idle ticks price nothing and a submit prices at
  most its own joins, so an O(live) regression fails without a clock.
"""

import itertools
import math
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

import repro
from repro.adaptive import AdaptivityConfig
from repro.core.cost import RateModel
from repro.durability import DurabilityConfig, recover
from repro.fleet import FleetController, Tenant
from repro.perf.profiler import profiled
from repro.query.deployment import _FEED_LIMIT, Deployment, DeploymentState
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from repro.resources import (
    Load,
    NodeCapacity,
    OperatorFootprint,
    ResourceConfig,
    ResourceLedger,
    uniform_capacities,
)
from repro.service import StreamQueryService

from tests.conftest import three_sink_world
from tests.resources.reference_ledger import ReferenceLedger


def assert_books_match(ledger: ResourceLedger, reference: ReferenceLedger) -> None:
    want = reference.node_loads()
    assert ledger.node_loads() == want  # exact: Loads compare float by float
    assert ledger.operator_keys() == reference.operator_keys()
    for node, load in want.items():
        assert ledger.load(node) == load
        assert ledger.queries_on(node) == reference.queries_on(node)
    assert_reports_match(ledger, reference)


def assert_reports_match(ledger: ResourceLedger, reference: ReferenceLedger) -> None:
    """The remembered ratios against a from-scratch recomputation: same
    floats, same node order, same hottest-first order."""
    caps = ledger.capacities
    utils = ledger.utilizations()
    assert list(utils.items()) == list(reference.utilizations(caps).items())
    assert ledger.max_utilization() == reference.max_utilization(caps)
    assert ledger.hot_nodes(4) == reference.hot_nodes(caps, 4)
    for node, util in utils.items():
        assert ledger.utilization(node) == util
    # Extra load on the hottest node and on one the books never met; the
    # runner-up relieved of everything it carries (a negative extra).
    hot = [node for node, _ in reference.hot_nodes(caps, 2)]
    extra = {10_000: Load(cpu=1.0)}
    for node, load in zip(hot, (Load(cpu=40.0, memory=3.0), None)):
        if load is None:
            carried = ledger.load(node)
            load = Load(-carried.cpu, -carried.memory, -carried.bandwidth)
        extra[node] = load
    # The default bound, and one a third of the fleet is over.
    ranked = sorted(utils.values())
    for bound in (1.0, ranked[2 * len(ranked) // 3] if ranked else 0.5):
        assert ledger.violations(bound) == reference.violations(caps, bound)
        assert ledger.violations(bound, extra) == reference.violations(
            caps, bound, extra
        )
    assert ledger.summary() == reference.summary(caps)
    assert ledger.summary(top=2) == reference.summary(caps, top=2)


# ----------------------------------------------------------------------
# Pinned pricing rules (hand-built deployments on the 8-node network)
# ----------------------------------------------------------------------
A, B, C = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
AB_C = Join(Join(A, B), C)
A_BC = Join(A, Join(B, C))
ABC_VIEW = Leaf(frozenset("ABC"))
#: The node every root operator below is placed on.
HUB = 5


def abc(name: str) -> Query:
    return Query(
        name,
        ["A", "B", "C"],
        sink=7,
        predicates=[JoinPredicate("A", "B", 0.01), JoinPredicate("B", "C", 0.02)],
    )


def left_deep(name: str) -> Deployment:
    """(A x B) x C with the root on HUB."""
    return Deployment(abc(name), AB_C, {A: 0, B: 3, C: 6, AB_C.left: 2, AB_C: HUB})


def right_deep(name: str) -> Deployment:
    """A x (B x C): the same root operator key, a different split."""
    return Deployment(abc(name), A_BC, {A: 0, B: 3, C: 6, A_BC.right: 4, A_BC: HUB})


def reuser(name: str) -> Deployment:
    """Consumes the deployed A-B-C view on HUB; holds no join."""
    return Deployment(abc(name), ABC_VIEW, {ABC_VIEW: HUB})


@pytest.fixture()
def books(small_net, abc_rates):
    state = DeploymentState(
        small_net.cost_matrix(), abc_rates.rate, abc_rates.source
    )
    footprint = OperatorFootprint(abc_rates)
    ledger = ResourceLedger()
    ledger.attach(state, footprint)
    return state, footprint, ledger, ReferenceLedger.shadowing(ledger)


class TestOrphanPricing:
    """An operator that outlived its installer is priced from the origin
    its state recorded at install time -- nothing else."""

    def test_first_installer_prices_the_orphan_not_the_last_holder(self, books):
        state, footprint, ledger, reference = books
        first, second = left_deep("first"), right_deep("second")
        for deployment in (first, second, reuser("rider")):
            state.apply(deployment)
            assert_books_match(ledger, reference)
        by_first = footprint.join_load(first.query, AB_C.left.sources, AB_C.right.sources)
        by_second = footprint.join_load(second.query, A_BC.left.sources, A_BC.right.sources)
        assert by_first != by_second, "the split must matter for this test"
        assert ledger.load(HUB) == by_first

        # The pricer leaves: the next holder takes over with its split.
        state.undeploy("first")
        assert ledger.load(HUB) == by_second
        assert_books_match(ledger, reference)
        # Only the reuser remains: back to what was installed.
        state.undeploy("second")
        assert ledger.load(HUB) == by_first
        assert ledger.queries_on(HUB) == []
        assert_books_match(ledger, reference)

        state.undeploy("rider")
        assert ledger.node_loads() == {} and ledger.operator_keys() == frozenset()

    def test_installer_retired_before_any_read_is_still_charged(self, books):
        state, footprint, ledger, reference = books
        owner = left_deep("owner")
        state.apply(owner)
        state.apply(reuser("rider"))
        state.undeploy("owner")
        # First read ever: the books never saw the owner's plan.
        assert ledger.node_loads() == {
            HUB: footprint.join_load(owner.query, AB_C.left.sources, AB_C.right.sources)
        }
        assert_books_match(ledger, reference)

    def test_answers_do_not_depend_on_when_the_ledger_was_read(self, small_net, abc_rates):
        def run(read_every_step: bool):
            state = DeploymentState(
                small_net.cost_matrix(), abc_rates.rate, abc_rates.source
            )
            ledger = ResourceLedger()
            ledger.attach(state, OperatorFootprint(abc_rates))
            steps = [
                lambda: state.apply(left_deep("first")),
                lambda: state.apply(right_deep("second")),
                lambda: state.apply(reuser("rider")),
                lambda: state.undeploy("second"),
                lambda: state.undeploy("first"),
            ]
            for step in steps:
                step()
                if read_every_step:
                    ledger.node_loads()
            return ledger.node_loads()

        assert run(read_every_step=True) == run(read_every_step=False)

    def test_orphans_sum_exactly(self, small_net):
        # Rates chosen so a running float sum of the three loads depends
        # on the order they are added in.
        rates = RateModel(
            {
                "A": StreamSpec("A", 0, 50.1),
                "B": StreamSpec("B", 3, 80.3),
                "C": StreamSpec("C", 6, 30.7),
            }
        )
        state = DeploymentState(small_net.cost_matrix(), rates.rate, rates.source)
        footprint = OperatorFootprint(rates)
        ledger = ResourceLedger()
        ledger.attach(state, footprint)
        reference = ReferenceLedger.shadowing(ledger)

        def pair(name, x, y, selectivity):
            query = Query(
                name, [x.stream, y.stream], sink=7,
                predicates=[JoinPredicate(x.stream, y.stream, selectivity)],
            )
            join = Join(x, y)
            sources = {A: 0, B: 3, C: 6}
            owner = Deployment(query, join, {x: sources[x], y: sources[y], join: HUB})
            view = Leaf(join.sources)
            rider = Deployment(query.renamed(name + ".rider"), view, {view: HUB})
            return owner, rider

        owners = []
        for name, x, y, sel in (("ab", A, B, 0.013), ("bc", B, C, 0.027), ("ac", A, C, 0.019)):
            owner, rider = pair(name, x, y, sel)
            state.apply(owner)
            state.apply(rider)
            owners.append(owner)
        loads = [
            footprint.join_load(o.query, o.plan.left.sources, o.plan.right.sources)
            for o in owners
        ]
        sums = {
            (loads[i] + loads[j]) + loads[k]
            for i, j, k in itertools.permutations(range(3))
        }
        assert len(sums) > 1, "the order must matter for this test"
        # Retire the owners newest-first: install order is not retire order.
        for owner in reversed(owners):
            state.undeploy(owner.query.name)
        exact = Load(
            *(math.fsum(getattr(load, dim) for load in loads) for dim in ("cpu", "memory", "bandwidth"))
        )
        assert ledger.node_loads() == {HUB: exact}
        assert_books_match(ledger, reference)


class TestReads:
    def test_statistics_publication_reprices_every_booked_operator(self, books, abc_rates):
        state, footprint, ledger, reference = books
        state.apply(left_deep("q"))
        before = ledger.node_loads()
        streams = abc_rates.streams
        streams["A"] = StreamSpec("A", 0, 500.0)
        with profiled() as prof:
            abc_rates.update_streams(streams)
            after = ledger.node_loads()
        assert prof.ops["ledger_ops_priced"] == 2
        assert after != before
        assert_books_match(ledger, reference)

    def test_node_loads_hands_out_a_private_dict(self, books):
        state, _, ledger, reference = books
        state.apply(left_deep("q"))
        ledger.node_loads().clear()
        assert_books_match(ledger, reference)


# ----------------------------------------------------------------------
# Differential state machines
# ----------------------------------------------------------------------
_CAPS = dict(cpu=600.0, memory=400.0, bandwidth=800.0)
_POOL = 10
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


def orphaned(state) -> int:
    """Live operators no deployment's plan holds a join for anymore."""
    held = {
        (d.query.view_signature(join.sources), d.placement[join])
        for d in state.deployments
        for join in d.plan.joins()
    }
    return sum(
        rec.origin is not None and (rec.signature, rec.node) not in held
        for rec in state.operator_records()
    )


class LedgerMachine(RuleBasedStateMachine):
    """Rules shared by the service and the fleet machine."""

    #: What the explored examples exercised, summed over a whole run.
    seen: Counter

    def __init__(self) -> None:
        super().__init__()
        self.net, self.hierarchy, self.rates, self.pool = three_sink_world(_POOL)
        self.serial = itertools.count()
        self.build()
        self.reference = ReferenceLedger.shadowing(self.ledger)
        # Every example starts from a busy plane, so the first drawn
        # rules already have something to shed, fail or migrate.
        for index in range(_POOL):
            self.submit(index, None if index % 2 else 6.0)
            self.books_match_the_reference()

    def build(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def submitter(self, index: int) -> dict:
        """Extra ``submit`` arguments for pool query ``index``."""
        return {}

    @rule(index=st.integers(0, _POOL - 1), lifetime=st.sampled_from([None, 2.0, 6.0]))
    def submit(self, index, lifetime):
        # A fresh name every time: same-shape resubmissions hit the plan
        # cache and reuse deployed views, which is where orphans come from.
        query = self.pool[index].renamed(f"{self.pool[index].name}#{next(self.serial) % 64}")
        if not self.plane.is_live(query.name):
            self.plane.submit(query, lifetime=lifetime, **self.submitter(index))

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

    def reapply_ends(self, churn: int) -> bool:
        """Edit a state behind its plane's back: undeploy its oldest and
        newest view-free deployments (undone newest first and redone
        oldest first, those re-apply whatever else is live), apply and
        undeploy ``churn`` renamed twins of the oldest, then re-apply the
        same two objects under their names.  Both move to the end of
        application order, so their pricing turns move too."""
        state = self.services[0].engine.state
        plain = [d for d in state.deployments if not d.reused_leaves()]
        if len(plain) < 2:
            return False
        ends = [plain[0], plain[-1]]
        for deployment in reversed(ends):
            state.undeploy(deployment.query.name)
        cursor = state.feed_cursor()
        for index in range(churn):
            twin = Deployment(
                ends[0].query.renamed(f"burst{index}"), ends[0].plan, ends[0].placement
            )
            state.apply(twin)
            state.undeploy(twin.query.name)
        for deployment in ends:
            state.apply(deployment)
        assert (state.names_since(cursor) is None) == bool(churn)
        self.edited_out_of_band = True
        return True

    @rule()
    def reapply(self):
        self.seen["reapplies"] += self.reapply_ends(0)

    @rule()
    def burst(self):
        # More name changes than the feed keeps between two ledger reads:
        # the books fall back to every known and every live name.
        self.seen["bursts"] += self.reapply_ends(_FEED_LIMIT // 2 + 1)

    @invariant()
    def books_match_the_reference(self):
        assert_books_match(self.ledger, self.reference)
        self.seen["orphans"] += sum(orphaned(s.engine.state) for s in self.services)

    #: Set by the rules that move the ledger without a service command
    #: (which would refresh that service's gauges on its way out).
    edited_out_of_band = False

    @property
    def gauges_behind(self) -> bool:
        # On a shared ledger one shard's command moves every shard's nodes.
        return self.edited_out_of_band or len(self.services) > 1

    @rule()
    def refresh_gauges_again(self):
        for service in self.services:
            with profiled() as prof:
                service.resources.record_gauges(service)
            if not self.gauges_behind:
                assert prof.ops["node_gauges_written"] == 0

    @invariant()
    def gauges_match_the_reference(self):
        """Written on change, every gauge still shows what writing all of
        them on every refresh would: the reference ratio, or 0.0."""
        want = self.reference.utilizations(self.ledger.capacities)
        for service in self.services:
            if self.gauges_behind:
                service.resources.record_gauges(service)
            registry = service.registry
            shown = {
                node: registry.get(f"resource_node_utilization_n{node}").value
                for node in self.net.nodes()
            }
            assert shown == {node: want.get(node, 0.0) for node in self.net.nodes()}
            assert registry.get("resource_max_utilization").value == max(shown.values())
            self.seen["gauges_nonzero"] += any(shown.values())
        self.edited_out_of_band = False

    def teardown(self):
        managers = [service.resources for service in self.services]
        self.seen["shed"] += sum(m.shed_total for m in managers)
        self.seen["readmitted"] += sum(m.readmitted_total for m in managers)
        self.seen["publications"] += self.rates.version
        self.seen["migrations"] += sum(
            s.adaptivity.summary()["migrations_committed"] for s in self.services
        )


class ServiceLedgerMachine(LedgerMachine):
    """One service: tight capacities (shed, park, re-admit), adaptivity
    (publication, migration) and node failover."""

    def build(self) -> None:
        ads = repro.AdvertisementIndex(self.hierarchy)
        optimizer = repro.TopDownOptimizer(self.hierarchy, self.rates, ads=ads)
        self.plane = StreamQueryService(
            optimizer,
            self.net,
            self.rates,
            hierarchy=self.hierarchy,
            ads=ads,
            adaptivity=_ADAPT,
            resources=bounded(self.net),
        )
        self.services = [self.plane]
        self.ledger = self.plane.resources.ledger
        self.failures = 0

    @rule(data=st.data())
    def fail_node(self, data):
        # Sources and sinks stay up, so every pool query stays plannable.
        pinned = {spec.source for spec in self.rates.streams.values()}
        pinned |= {query.sink for query in self.pool}
        hosts = sorted(set(self.ledger.node_loads()) - pinned)
        if hosts and self.failures < 2:
            self.failures += 1
            self.seen["failovers"] += 1
            self.plane.handle_node_failure(data.draw(st.sampled_from(hosts)))

    @rule(data=st.data(), factor=st.sampled_from([None, 0.5, 2.0, float("inf")]))
    def edit_capacity(self, data, factor):
        # Public and mutable: dropped, scaled or lifted under a live fleet.
        caps = self.ledger.capacities
        node = data.draw(st.sampled_from(sorted(self.net.nodes())))
        if factor is None:
            caps.pop(node, None)
        elif factor == float("inf"):
            caps[node] = NodeCapacity()
        else:
            caps[node] = caps.get(node, NodeCapacity(**_CAPS)).scaled(factor)
        self.seen["capacity_edits"] += 1
        self.edited_out_of_band = True

    @rule()
    def restore(self):
        # What crash recovery does to a state: same content, new records.
        for service in self.services:
            state = service.engine.state
            state.restore(
                state.deployments,
                [
                    (rec.signature, rec.node, rec.rate, set(rec.queries), rec.origin)
                    for rec in state.operator_records()
                ],
                state.flows(),
            )
        self.seen["restores"] += 1
        self.edited_out_of_band = True


class FleetLedgerMachine(LedgerMachine):
    """Two hash-routed shards on one ledger; the federation plants one
    shard's views in the other as external records."""

    def build(self) -> None:
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
        )
        self.services = self.plane.shards
        self.ledger = self.plane.resource_ledger

    def submitter(self, index: int) -> dict:
        return {"tenant": TENANTS[index % 3].name}

    @rule(data=st.data())
    def rebalance(self, data):
        live = sorted(self.plane.live_queries)
        if live:
            name = data.draw(st.sampled_from(live))
            self.plane.rebalance(name, 1 - self.plane.shard_of(name))

    def teardown(self):
        super().teardown()
        self.seen["imports"] += self.plane.federation.imported_total
        self.seen["promotions"] += self.plane.federation.promoted_total


#: Derandomized: the same examples every run, so the mechanisms the
#: tests below insist on having been exercised are exercised every run.
_MACHINE = settings(
    max_examples=10, stateful_step_count=25, deadline=None, derandomize=True
)


def test_service_books_match_the_reference_after_every_command():
    ServiceLedgerMachine.seen = seen = Counter()
    run_state_machine_as_test(ServiceLedgerMachine, settings=_MACHINE)
    for mechanism in (
        "shed", "readmitted", "publications", "migrations", "failovers", "orphans",
        "capacity_edits", "restores", "gauges_nonzero", "reapplies", "bursts",
    ):
        assert seen[mechanism], f"no example exercised {mechanism}: {dict(seen)}"


def test_fleet_books_match_the_reference_after_every_command():
    FleetLedgerMachine.seen = seen = Counter()
    run_state_machine_as_test(FleetLedgerMachine, settings=_MACHINE)
    for mechanism in (
        "shed", "readmitted", "publications", "imports", "promotions", "orphans",
        "gauges_nonzero", "reapplies", "bursts",
    ):
        assert seen[mechanism], f"no example exercised {mechanism}: {dict(seen)}"


def test_a_refused_rebalance_leaves_nothing_parked_on_the_target():
    """Found by the fleet machine: a move the target shard parks rolls
    back onto the source, and the target kept it parked, so a later tick
    deployed a query that was live on the source again."""
    FleetLedgerMachine.seen = Counter()
    fleet = FleetLedgerMachine().plane
    name = "q0#0"
    source = fleet.shard_of(name)
    caps = fleet.resource_ledger.capacities
    roomy = dict(caps)
    for node, cap in roomy.items():  # nothing fits anywhere for the move
        caps[node] = cap.scaled(0.01)
    assert not fleet.rebalance(name, 1 - source).moved
    assert name not in fleet.shards[1 - source].resources.parked
    caps.update(roomy)
    fleet.tick()
    fleet.tick()
    live = [live for shard in fleet.shards for live in shard.live_queries]
    assert len(live) == len(set(live))
    assert fleet.shard_of(name) == source


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
class TestWorkCounts:
    def test_idle_ticks_price_nothing_and_a_submit_prices_its_own_joins(self):
        net = repro.transit_stub_by_size(64, seed=3)
        hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(
                num_streams=10, num_queries=201, joins_per_query=(1, 3)
            ),
            seed=4,
        )
        rates = workload.rate_model()
        ads = repro.AdvertisementIndex(hierarchy)
        service = StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates, ads=ads),
            net,
            rates,
            hierarchy=hierarchy,
            ads=ads,
            admission=repro.AdmissionController(budget=256),
            resources=ResourceConfig(
                capacities=uniform_capacities(net, cpu=1e9, memory=1e9, bandwidth=1e9)
            ),
        )
        *fill, last = workload
        with profiled() as prof:
            for query in fill:
                service.submit(query)
        state = service.engine.state
        assert len(state.deployments) == 200
        installed = sum(len(d.plan.joins()) for d in state.deployments)
        assert 0 < prof.ops["ledger_ops_priced"] <= installed

        with profiled() as prof:
            for _ in range(50):
                service.tick()
        assert prof.ops.get("ledger_ops_priced", 0) == 0

        with profiled() as prof:
            service.submit(last)
        own = len(state.deployment(last.name).plan.joins())
        assert prof.ops.get("ledger_ops_priced", 0) <= own
        assert_books_match(
            service.resources.ledger,
            ReferenceLedger.shadowing(service.resources.ledger),
        )


# ----------------------------------------------------------------------
# Node gauges follow the ledger
# ----------------------------------------------------------------------
def gauge_of(service, node: int):
    return service.registry.get(f"resource_node_utilization_n{node}")


def hand_placed(rates, name: str, inner: int, root: int, right_deep: bool = False) -> Deployment:
    """A three-stream chain query with its two joins where the test says."""
    x, y, z = (Leaf.of(stream) for stream in sorted(rates.streams)[:3])
    query = Query(
        name,
        [x.stream, y.stream, z.stream],
        sink=root,
        predicates=[
            JoinPredicate(x.stream, y.stream, 0.01),
            JoinPredicate(y.stream, z.stream, 0.02),
        ],
    )
    plan = Join(x, Join(y, z)) if right_deep else Join(Join(x, y), z)
    placement = {leaf: rates.source(leaf.stream) for leaf in (x, y, z)}
    placement[plan.right if right_deep else plan.left] = inner
    placement[plan] = root
    return Deployment(query, plan, placement)


class TestNodeGauges:
    @pytest.fixture()
    def service(self):
        net, hierarchy, rates, _ = three_sink_world(_POOL)
        return StreamQueryService(
            repro.TopDownOptimizer(hierarchy, rates),
            net,
            rates,
            hierarchy=hierarchy,
            resources=ResourceConfig(
                capacities=uniform_capacities(net, cpu=1e6, memory=1e6, bandwidth=1e6)
            ),
        )

    def written(self, service, cursor) -> list[str]:
        """Node gauges written since ``cursor``, in the order written."""
        return [
            name
            for name in service.registry.changes_since(cursor)
            if name.startswith("resource_node_utilization_n")
        ]

    def test_moved_gauges_are_written_in_node_order(self, service):
        service.tick()  # the first refresh writes every gauge, at 0.0
        assert {gauge_of(service, n).value for n in service.network.nodes()} == {0.0}
        state, ledger = service.engine.state, service.resources.ledger
        cursor = service.registry.feed_cursor()
        # Nodes whose set order and reversed set order are both unsorted.
        state.apply(hand_placed(service.rates, "first", inner=2, root=9))
        state.apply(hand_placed(service.rates, "second", inner=20, root=9, right_deep=True))
        with profiled() as prof:
            service.resources.record_gauges(service)
        assert self.written(service, cursor) == [
            f"resource_node_utilization_n{node}" for node in (2, 9, 20)
        ]
        assert prof.ops["node_gauges_written"] == 3
        for node in service.network.nodes():
            assert gauge_of(service, node).value == ledger.utilization(node)
        assert gauge_of(service, 9).value > 0.0
        # A refresh with nothing moved writes no node gauge.
        cursor = service.registry.feed_cursor()
        service.resources.record_gauges(service)
        service.tick()
        assert self.written(service, cursor) == []

    def test_a_capacities_edit_rewrites_every_gauge(self, service):
        state, ledger = service.engine.state, service.resources.ledger
        state.apply(hand_placed(service.rates, "first", inner=2, root=9))
        service.resources.record_gauges(service)
        before = gauge_of(service, 9).value
        # No call tells the ledger, and no node is re-summed.
        ledger.capacities[9] = ledger.capacities[9].scaled(0.5)
        cursor = service.registry.feed_cursor()
        with profiled() as prof:
            service.resources.record_gauges(service)
        assert prof.ops["node_gauges_written"] == service.network.num_nodes
        assert len(self.written(service, cursor)) == service.network.num_nodes
        assert gauge_of(service, 9).value == ledger.utilization(9) == 2 * before
        assert service.registry.get("resource_max_utilization").value == (
            ledger.max_utilization()
        )

    def test_the_peak_gauge_ignores_nodes_outside_the_network(self, service):
        ledger = service.resources.ledger
        service.engine.state.apply(hand_placed(service.rates, "inside", inner=2, root=9))
        # Another plane on a larger network shares the ledger.
        wide = repro.transit_stub_by_size(64, seed=1)
        rates = service.rates
        other = DeploymentState(wide.cost_matrix(), rates.rate, rates.source)
        ledger.attach(other, OperatorFootprint(rates))
        other.apply(hand_placed(rates, "outside", inner=40, root=41))
        ledger.capacities[40] = NodeCapacity(cpu=1.0, memory=1.0, bandwidth=1.0)
        service.resources.record_gauges(service)
        inside = max(ledger.utilization(node) for node in service.network.nodes())
        assert ledger.max_utilization() == ledger.utilization(40) > inside > 0.0
        assert service.registry.get("resource_max_utilization").value == inside


# ----------------------------------------------------------------------
# Resources x durability
# ----------------------------------------------------------------------
class TestRecoveredLedger:
    def test_recovered_books_equal_the_live_ones(self, tmp_path):
        state_dir = tmp_path / "state"

        def factory():
            net, hierarchy, rates, _ = three_sink_world(_POOL)
            ads = repro.AdvertisementIndex(hierarchy)
            return StreamQueryService(
                repro.TopDownOptimizer(hierarchy, rates, ads=ads),
                net,
                rates,
                hierarchy=hierarchy,
                ads=ads,
                durability=DurabilityConfig(
                    state_dir=str(state_dir), snapshot_interval=4
                ),
                # Roomy: nothing parks, this test is about the books.
                resources=ResourceConfig(
                    capacities=uniform_capacities(net, cpu=1e6, memory=1e6, bandwidth=1e6)
                ),
            )

        live = factory()
        pool = three_sink_world(_POOL)[3]
        for query in pool:
            live.submit(query)
        state = live.engine.state
        # Retire a query whose operator another query's plan reuses, and
        # let a snapshot capture the operator outliving it.
        installer = next(
            d.query.name
            for d in state.deployments
            for join in d.plan.joins()
            if state.queries_using(
                d.query.view_signature(join.sources), d.placement[join]
            )
            - {d.query.name}
        )
        live.retire(installer)
        assert orphaned(state)
        for _ in range(5):
            live.tick()
        live.submit(pool[0].renamed("late"))  # lands in the replayed suffix
        live.tick()
        ledger = live.resources.ledger
        live.durability.journal.close()

        recovered, report = recover(state_dir, factory)
        try:
            assert report.snapshot_lsn > 0 and report.replayed_records > 0
            got = recovered.resources.ledger
            assert got.node_loads() == ledger.node_loads()
            assert got.operator_keys() == ledger.operator_keys()
            assert_books_match(got, ReferenceLedger.shadowing(got))
        finally:
            recovered.durability.journal.close()
