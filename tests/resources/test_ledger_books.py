"""The ledger's incremental books against the derive-everything model.

Three layers of evidence that :class:`repro.resources.ResourceLedger`
(O(delta) books, reconciled lazily) is the same function of the attached
deployment state as ``reference_ledger.ReferenceLedger`` (walks and
prices everything on every call):

* pinned regressions for the pricing rules the old derive-on-call
  ledger got wrong (orphan pricing depended on call history and on the
  hash seed);
* a hypothesis state machine over the whole command surface of a
  service under tight capacities with adaptivity, asserting exact
  equality after every command (the violating set the ledger keeps
  first, as the command's re-sums left it);
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
from tests.resources.reference_ledger import ReferenceLedger, load_of, ratios


def assert_books_match(ledger: ResourceLedger, reference: ReferenceLedger) -> None:
    want = reference.node_loads()
    assert ledger.node_loads() == want  # exact: Loads compare float by float
    assert ledger.operator_keys() == reference.operator_keys()
    for node in want:
        assert ledger.queries_on(node) == reference.queries_on(node)
    assert_reports_match(ledger, reference)


def assert_kept_violations_match(ledger: ResourceLedger, reference: ReferenceLedger) -> None:
    """The violating set the ledger keeps for the bound it was last asked
    about, as every re-sum since left it, against the full filter: with
    and without extra load on a hot node and on one it never met."""
    caps, bound = ledger.capacities, ledger._over_bound
    hot = [node for node, _ in reference.hot_nodes(caps, 1)]
    extra = {node: Load(cpu=25.0) for node in [*hot, 10_000]}
    assert ledger.violations(bound) == reference.violations(caps, bound)
    assert ledger.violations(bound, extra) == reference.violations(caps, bound, extra)


def assert_reports_match(ledger: ResourceLedger, reference: ReferenceLedger) -> None:
    """The remembered ratios against a from-scratch recomputation: same
    floats, same node order, same hottest-first order."""
    caps = ledger.capacities
    utils = ratios(ledger)
    assert list(utils.items()) == list(reference.utilizations(caps).items())
    assert ledger.max_utilization() == reference.max_utilization(caps)
    assert ledger.hot_nodes(4) == reference.hot_nodes(caps, 4)
    # Extra load on the hottest node and on one the books never met; the
    # runner-up relieved of everything it carries (a negative extra).
    hot = [node for node, _ in reference.hot_nodes(caps, 2)]
    extra = {10_000: Load(cpu=1.0)}
    for node, load in zip(hot, (Load(cpu=40.0, memory=3.0), None)):
        if load is None:
            carried = load_of(ledger, node)
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
        assert load_of(ledger, HUB) == by_first

        # The pricer leaves: the next holder takes over with its split.
        state.undeploy("first")
        assert load_of(ledger, HUB) == by_second
        assert_books_match(ledger, reference)
        # Only the reuser remains: back to what was installed.
        state.undeploy("second")
        assert load_of(ledger, HUB) == by_first
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


class TestOneState:
    def test_a_ledger_refuses_a_second_state(self, books, small_net, abc_rates):
        state, footprint, ledger, reference = books
        ledger.attach(state, footprint)  # the same state again: nothing changes
        other = DeploymentState(small_net.cost_matrix(), abc_rates.rate, abc_rates.source)
        with pytest.raises(ValueError, match="exactly one deployment state"):
            ledger.attach(other, OperatorFootprint(abc_rates))
        other.apply(left_deep("elsewhere"))
        assert ledger.state is state and ledger.node_loads() == {}
        state.apply(left_deep("here"))
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

    def test_kept_violations_follow_loads_and_capacity_edits(self, books, abc_rates):
        """The violating set kept for a bound moves with each re-sum and
        is filtered again when the ratios are rebuilt (a capacity edit)."""
        state, _, ledger, reference = books
        state.apply(left_deep("q"))
        load = load_of(ledger, HUB)
        ledger.capacities[HUB] = NodeCapacity(cpu=load.cpu * 4, memory=load.memory * 4)

        def check(violating: bool) -> None:
            want = reference.violations(ledger.capacities, 0.5)
            assert ledger.violations(0.5) == want and bool(want) is violating

        check(False)
        streams = abc_rates.streams
        streams["A"] = StreamSpec("A", 0, streams["A"].rate * 10)
        abc_rates.update_streams(streams)  # HUB re-summed past half
        check(True)
        ledger.capacities[HUB] = ledger.capacities[HUB].scaled(100.0)
        check(False)
        ledger.capacities[HUB] = ledger.capacities[HUB].scaled(0.01)
        check(True)
        state.undeploy("q")
        check(False)
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
    """One service: tight capacities (shed, park, re-admit), adaptivity
    (publication, migration) and node failover."""

    #: What the explored examples exercised, summed over a whole run.
    seen: Counter

    def __init__(self) -> None:
        super().__init__()
        self.net, self.hierarchy, self.rates, self.pool = three_sink_world(_POOL)
        self.serial = itertools.count()
        ads = repro.AdvertisementIndex(self.hierarchy)
        optimizer = repro.TopDownOptimizer(self.hierarchy, self.rates, ads=ads)
        self.service = StreamQueryService(
            optimizer,
            self.net,
            self.rates,
            hierarchy=self.hierarchy,
            ads=ads,
            adaptivity=_ADAPT,
            resources=bounded(self.net),
        )
        self.ledger = self.service.resources.ledger
        self.failures = 0
        self.reference = ReferenceLedger.shadowing(self.ledger)
        # Every example starts from a busy service, so the first drawn
        # rules already have something to shed, fail or migrate.
        for index in range(_POOL):
            self.submit(index, None if index % 2 else 6.0)
            self.books_match_the_reference()

    @rule(index=st.integers(0, _POOL - 1), lifetime=st.sampled_from([None, 2.0, 6.0]))
    def submit(self, index, lifetime):
        # A fresh name every time: same-shape resubmissions hit the plan
        # cache and reuse deployed views, which is where orphans come from.
        query = self.pool[index].renamed(f"{self.pool[index].name}#{next(self.serial) % 64}")
        if query.name not in self.service.live_queries:
            self.service.submit(query, lifetime=lifetime)

    @rule(data=st.data())
    def retire(self, data):
        live = sorted(self.service.live_queries)
        if live:
            self.service.retire(data.draw(st.sampled_from(live)))

    @rule()
    def tick(self):
        self.service.tick()

    @rule(stream=st.integers(0, 5), factor=st.sampled_from([0.5, 2.0]))
    def publish_drift(self, stream, factor):
        samples = {name: spec.rate for name, spec in self.rates.streams.items()}
        samples[sorted(samples)[stream]] *= factor
        self.service.observe_rates(samples)
        self.service.tick()

    def reapply_ends(self, churn: int) -> bool:
        """Edit the state behind the service's back: undeploy its oldest and
        newest view-free deployments (undone newest first and redone
        oldest first, those re-apply whatever else is live), apply and
        undeploy ``churn`` renamed twins of the oldest, then re-apply the
        same two objects under their names.  Both move to the end of
        application order, so their pricing turns move too."""
        state = self.service.engine.state
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

    @rule(data=st.data())
    def fail_node(self, data):
        # Sources and sinks stay up, so every pool query stays plannable.
        pinned = {spec.source for spec in self.rates.streams.values()}
        pinned |= {query.sink for query in self.pool}
        hosts = sorted(set(self.ledger.node_loads()) - pinned)
        if hosts and self.failures < 2:
            self.failures += 1
            self.seen["failovers"] += 1
            self.service.handle_node_failure(data.draw(st.sampled_from(hosts)))

    @rule(data=st.data(), factor=st.sampled_from([None, 0.5, 2.0, float("inf")]))
    def edit_capacity(self, data, factor):
        # Public and mutable: dropped, scaled or lifted under a live service.
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
        state = self.service.engine.state
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

    @invariant()
    def books_match_the_reference(self):
        # First, before a read of another bound rebuilds the kept set.
        assert_kept_violations_match(self.ledger, self.reference)
        self.seen["violations_kept"] += bool(self.ledger.violations(self.ledger._over_bound))
        assert_books_match(self.ledger, self.reference)
        self.seen["orphans"] += orphaned(self.service.engine.state)

    #: Set by the rules that move the ledger without a service command
    #: (which would refresh the service's gauges on its way out).
    edited_out_of_band = False

    @rule()
    def refresh_gauges_again(self):
        with profiled() as prof:
            self.service.resources.record_gauges(self.service)
        if not self.edited_out_of_band:
            assert prof.ops["node_gauges_written"] == 0

    @invariant()
    def gauges_match_the_reference(self):
        """Written on change, every gauge still shows what writing all of
        them on every refresh would: the reference ratio, or 0.0."""
        want = self.reference.utilizations(self.ledger.capacities)
        if self.edited_out_of_band:
            self.service.resources.record_gauges(self.service)
        registry = self.service.registry
        shown = {
            node: registry.get(f"resource_node_utilization_n{node}").value
            for node in self.net.nodes()
        }
        assert shown == {node: want.get(node, 0.0) for node in self.net.nodes()}
        assert registry.get("resource_max_utilization").value == max(shown.values())
        self.seen["gauges_nonzero"] += any(shown.values())
        self.edited_out_of_band = False

    def teardown(self):
        manager = self.service.resources
        self.seen["shed"] += manager.shed_total
        self.seen["readmitted"] += manager.readmitted_total
        self.seen["publications"] += self.rates.version
        self.seen["migrations"] += self.service.adaptivity.summary()["migrations_committed"]


#: Derandomized: the same examples every run, so the mechanisms the
#: tests below insist on having been exercised are exercised every run.
_MACHINE = settings(
    max_examples=10, stateful_step_count=25, deadline=None, derandomize=True
)


def test_service_books_match_the_reference_after_every_command():
    LedgerMachine.seen = seen = Counter()
    run_state_machine_as_test(LedgerMachine, settings=_MACHINE)
    for mechanism in (
        "shed", "readmitted", "publications", "migrations", "failovers", "orphans",
        "capacity_edits", "restores", "gauges_nonzero", "reapplies", "bursts",
        "violations_kept",
    ):
        assert seen[mechanism], f"no example exercised {mechanism}: {dict(seen)}"


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
            assert gauge_of(service, node).value == ratios(ledger).get(node, 0.0)
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
        assert gauge_of(service, 9).value == ratios(ledger)[9] == 2 * before
        assert service.registry.get("resource_max_utilization").value == (
            ledger.max_utilization()
        )


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
