"""Claims: ``undeploy`` releases exactly the records ``apply`` claimed.

``DeploymentState.apply`` records, in order, every ``(signature, node)``
whose holder set it added the query's name to -- its joins, the records
its reused leaves bound to and the filter operators of its shipped
filtered base streams -- and ``undeploy`` takes the name off exactly
those, deriving no signature.  Three layers of evidence:

* a derandomized hypothesis state machine holding the claims to the
  re-deriving ``undeploy`` they replaced
  (``reference_undeploy.ReferenceState``) over ``apply`` (planned, a
  whole-view rider, a refused plan), ``undeploy``, re-``apply``,
  ``register_external_view`` / ``unregister_external_view``,
  ``recompute_rates``, ``recompute_costs``, ``clone`` and ``restore``.
  With filter-free queries the two states stay equal after every step:
  the records with their holders, rates, origins and serials, the
  operator-set feed since the previous step, and the flows with the
  bits of their prices.  With filtered queries (and riders bound by
  containment) they stay equal but for the records the oracle leaks,
  and no record of the claiming state ever names a retired query;
* a refused ``apply`` leaves no trace: the records, the operator set
  its feed shows and the readers that key on ``revision`` (the
  advertisement index, the resource ledger) look as before the call;
* a work-count gate: a plan-cache-hit submit of a k-stream query
  derives at most ``2k - 1`` view signatures, a retire none.
"""

import itertools
from collections import Counter
from contextlib import contextmanager

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

import repro
from repro.core.cost import RateModel
from repro.errors import DeploymentError
from repro.fleet import FEDERATION_OWNER
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import Filter, StreamSpec
from repro.resources import OperatorFootprint, ResourceLedger

from tests.conftest import small_world
from tests.query.reference_undeploy import ReferenceState

_POOL = 8
_NODES = 32


def with_filter(query, name, predicate="x > 0", selectivity=0.5):
    """``query`` under ``name`` with one more filter, on its first stream."""
    return Query(
        name,
        query.sources,
        query.sink,
        query.predicates,
        [*query.filters, Filter(sorted(query.sources)[0], predicate, selectivity)],
        window=query.window,
    )


def records(state):
    return [
        (r.signature, r.node, r.rate.hex(), frozenset(r.queries), r.origin, r.serial)
        for r in state.operator_records()
    ]


def flows(state):
    """Every flow with the bits of its stored price, per paying query."""
    prices = state._flow_costs  # the prices apply/recompute stored, not re-derived
    return {
        name: [(flow, price.hex()) for flow, price in zip(state._flows[name], prices[name])]
        for name in state._flows
    }


class ClaimsMachine(RuleBasedStateMachine):
    """The claiming state and the re-deriving oracle, driven alike."""

    filtered = False
    #: What the explored examples exercised, summed over a whole run.
    seen: Counter

    def __init__(self) -> None:
        super().__init__()
        world = small_world(_POOL)
        net, hierarchy, self.rates = world.network, world.hierarchy(), world.rates
        base = list(world.workload)
        self.pool = (
            [with_filter(q, f"{q.name}~f") for q in base] if self.filtered else base
        )
        self.costs = net.cost_matrix()
        self.fast = DeploymentState(self.costs, self.rates.rate, self.rates.source)
        self.slow = ReferenceState(self.costs, self.rates.rate, self.rates.source)
        self.ads = repro.AdvertisementIndex(hierarchy)
        for name, spec in self.rates.streams.items():
            self.ads.advertise_base(name, spec.source)
        self.optimizer = repro.TopDownOptimizer(hierarchy, self.rates, ads=self.ads)
        self.serial = itertools.count()
        self.captured = None
        self.cursors = None
        self.imports: list[tuple[Query, int]] = []
        # Every example starts busy: live queries, an import a local query
        # consumes (withdrawing it promotes) and one nobody does.
        for index in range(4):
            self.deploy(index)
        self.import_view(5, 9)
        self.ride(-1)
        self.import_view(6, 10)

    def both(self, method, *args):
        fast = getattr(self.fast, method)(*args)
        slow = getattr(self.slow, method)(*args)
        assert fast == slow
        return fast

    # -- apply / undeploy ---------------------------------------------------
    @rule(index=st.integers(0, _POOL - 1))
    def deploy(self, index):
        base = self.pool[index]
        query = base.renamed(f"{base.name}#{next(self.serial)}")
        self.ads.sync_from_state(self.fast)
        self.both("apply", self.optimizer.plan(query, self.fast))
        self.seen["deployed"] += 1

    @rule(pick=st.integers(0, 10**6))
    def ride(self, pick):
        """A query consuming a live query's or an import's whole view; with
        filters on, one filter more, so the leaf binds by containment."""
        views = [(d.query, d.placement[d.plan]) for d in self.fast.deployments if d.plan.num_joins]
        views += [
            (query, node)
            for query, node in self.imports
            if self.fast.has_view(query.view_signature(), node)
        ]
        if not views:
            return
        provider, node = views[pick % len(views)]
        name = f"rider#{next(self.serial)}"
        query = (
            with_filter(provider, name, "y > 1", 0.25)
            if self.filtered
            else provider.renamed(name)
        )
        view = Leaf(frozenset(query.sources))
        self.both("apply", Deployment(query, view, {view: node}))
        self.seen["rode"] += 1

    @rule(pick=st.integers(0, 10**6))
    def retire(self, pick):
        live = self.fast.deployments
        if live:
            self.both("undeploy", live[pick % len(live)].query.name)
            self.seen["retired"] += 1

    @rule(pick=st.integers(0, 10**6))
    def bounce(self, pick):
        """Retire and re-apply one deployment object: claims start afresh."""
        live = self.fast.deployments
        if live:
            deployment = live[pick % len(live)]
            self.both("undeploy", deployment.query.name)
            try:
                self.both("apply", deployment)
            except DeploymentError:  # it reused a view only it kept alive
                self.seen["bounce_refused"] += 1

    @rule(index=st.integers(0, _POOL - 1), node=st.integers(0, _NODES - 1))
    def refuse(self, index, node):
        """A plan reusing a view nobody deployed: refused, no trace."""
        query = self.pool[index]
        if len(query.sources) < 4:
            return
        first, second, *rest = sorted(query.sources)
        view = Leaf(frozenset(rest))
        sig = query.view_signature(rest)
        if self.fast.has_view(sig, node) or self.slow.has_view(sig, node):
            return
        a, b = Leaf.of(first), Leaf.of(second)
        inner = Join(a, b)
        plan = Join(inner, view)
        placement = {
            a: self.rates.source(first),
            b: self.rates.source(second),
            inner: node,
            view: node,
            plan: node,
        }
        deployment = Deployment(query.renamed(f"refused#{next(self.serial)}"), plan, placement)
        for state in (self.fast, self.slow):
            with pytest.raises(DeploymentError, match="no such operator"):
                state.apply(deployment)
        self.seen["refused"] += 1

    # -- what ReuseFederation.sync does to a shard -------------------------
    @rule(index=st.integers(0, _POOL - 1), node=st.integers(0, _NODES - 1))
    def import_view(self, index, node):
        query = self.pool[index]
        sig = query.view_signature()
        if not self.fast.has_view(sig, node):
            self.both("register_external_view", sig, node, self.rates.rate(sig), FEDERATION_OWNER)
            self.imports.append((query, node))
            self.seen["imported"] += 1

    @rule(pick=st.integers(0, 10**6))
    def drop_import(self, pick):
        imports = [
            (r.signature, r.node)
            for r in self.fast.operator_records()
            if FEDERATION_OWNER in r.queries
        ]
        if imports:
            key = imports[pick % len(imports)]
            gone = self.both("unregister_external_view", *key, FEDERATION_OWNER)
            self.seen["withdrawn" if gone else "promoted"] += 1

    # -- prices ------------------------------------------------------------
    @rule(factor=st.sampled_from([0.5, 1.5, 3.0]))
    def recompute_costs(self, factor):
        self.costs = self.costs * factor
        self.both("recompute_costs", self.costs)
        self.seen["recompute_costs"] += 1

    @rule(scale=st.sampled_from([1.0, 2.0]))
    def recompute_rates(self, scale):
        streams = {
            name: StreamSpec(name, spec.source, spec.rate * scale)
            for name, spec in self.rates.streams.items()
        }
        self.rates.update_streams(streams)
        self.both("recompute_rates")
        self.seen["recompute_rates"] += 1

    # -- another state, another log ----------------------------------------
    @rule()
    def clone(self):
        self.fast, self.slow = self.fast.clone(), self.slow.clone()
        self.seen["cloned"] += 1

    @rule()
    def capture(self):
        self.captured = [
            (
                state.deployments,
                [
                    (r.signature, r.node, r.rate, set(r.queries), r.origin)
                    for r in state.operator_records()
                ],
                state.flows(),
            )
            for state in (self.fast, self.slow)
        ]

    @rule()
    def restore(self):
        if self.captured is not None:
            for state, captured in zip((self.fast, self.slow), self.captured):
                state.restore(*captured)
            self.seen["restored"] += 1

    # ----------------------------------------------------------------------
    @invariant()
    def releases_what_the_oracle_releases(self):
        fast, slow = self.fast, self.slow
        alive = {d.query.name for d in fast.deployments} | {FEDERATION_OWNER}
        assert [d.query.name for d in fast.deployments] == [
            d.query.name for d in slow.deployments
        ]
        # The claiming state never keeps a retired query's name.
        assert all(r.queries <= alive for r in fast.operator_records())
        assert flows(fast) == flows(slow)
        assert float(fast.total_cost()).hex() == float(slow.total_cost()).hex()
        self.seen["filtered_base_shipped"] += any(
            len(sig.sources) == 1 and sig.filters for sig, _ in fast.operators()
        )
        if self.filtered:
            kept = {(r.signature, r.node): r.queries for r in fast.operator_records()}
            theirs = {(r.signature, r.node): r.queries & alive for r in slow.operator_records()}
            assert {key: held for key, held in theirs.items() if held} == kept
            self.seen["leaked"] += len(theirs) > len(kept)
        else:
            assert records(fast) == records(slow)
            if self.cursors is not None:
                changed = fast.changes_since(self.cursors[0])
                assert changed == slow.changes_since(self.cursors[1])
                self.seen["feed_delta" if changed else "feed_none"] += 1
            self.cursors = (fast.feed_cursor(), slow.feed_cursor())


class FilteredClaimsMachine(ClaimsMachine):
    filtered = True


#: Derandomized: the same examples every run, so the transitions the
#: test insists on having been exercised are exercised every run.
_MACHINE = settings(
    max_examples=40, stateful_step_count=40, deadline=None, derandomize=True
)

_TRANSITIONS = (
    "deployed", "rode", "retired", "refused", "imported", "withdrawn", "promoted",
    "recompute_costs", "recompute_rates", "cloned", "restored",
)


def test_claims_release_what_the_re_deriving_undeploy_released():
    ClaimsMachine.seen = seen = Counter()
    run_state_machine_as_test(ClaimsMachine, settings=_MACHINE)
    for transition in (*_TRANSITIONS, "feed_delta", "feed_none"):
        assert seen[transition], f"no example exercised {transition}: {dict(seen)}"


def test_with_filters_the_oracle_differs_only_by_what_it_leaks():
    FilteredClaimsMachine.seen = seen = Counter()
    run_state_machine_as_test(FilteredClaimsMachine, settings=_MACHINE)
    for transition in (*_TRANSITIONS, "filtered_base_shipped", "leaked"):
        assert seen[transition], f"no example exercised {transition}: {dict(seen)}"


# ----------------------------------------------------------------------
# A refused apply
# ----------------------------------------------------------------------
@pytest.fixture()
def abcd():
    """Four streams on an 8-node line, a chain query over them."""
    costs = np.abs(np.subtract.outer(np.arange(8), np.arange(8))).astype(float)
    sources = zip("ABCD", (0, 2, 4, 6))
    rates = RateModel({name: StreamSpec(name, node, 10.0 * (node + 1)) for name, node in sources})
    query = Query(
        "q",
        "ABCD",
        sink=7,
        predicates=[JoinPredicate(l, r, 0.1) for l, r in ("AB", "BC", "CD")],
        filters=[Filter("A", "x > 0", 0.5)],
    )
    return costs, rates, query


def test_a_refused_apply_leaves_no_trace(abcd):
    """``Join(Join(A, B), V)`` with ``V`` not deployed: the record for
    ``A*B`` (and the filter operator shipping ``A``) was installed before
    the leaf check refused ``V``; now it is released again, and a record
    that was already there (an import, with no origin) keeps its holders
    and gets no origin."""
    costs, rates, query = abcd
    state = DeploymentState(costs, rates.rate, rates.source)
    a, b, c, d = (Leaf.of(s) for s in "ABCD")
    # Another query's A*B at node 1 (and its filtered A) stays, as does
    # an import of A*B at node 2.
    ab, cd = Join(a, b), Join(c, d)
    whole = Join(ab, cd)
    placement = {a: 0, b: 2, c: 4, d: 6, ab: 1, cd: 5, whole: 3}
    state.apply(Deployment(query.renamed("other"), whole, placement))
    imported = query.view_signature("AB")
    state.register_external_view(imported, 2, rates.rate(imported), FEDERATION_OWNER)

    hierarchy = repro.build_hierarchy(repro.transit_stub_by_size(8, seed=1), max_cs=4, seed=0)
    ads = repro.AdvertisementIndex(hierarchy)
    ledger = ResourceLedger()
    ledger.attach(state, OperatorFootprint(rates))

    def observed():
        ads.sync_from_state(state)
        books = ledger.operator_keys(), ledger.node_loads()
        return records(state), flows(state), books, ads.views()

    before = observed()
    cursor, revision = state.feed_cursor(), state.revision

    for node in (2, 3):  # onto the import, then onto a fresh record
        view = Leaf(frozenset("CD"))
        inner = Join(a, b)
        plan = Join(inner, view)
        refused = Deployment(query, plan, {a: 0, b: 2, inner: node, view: 7, plan: 7})
        with pytest.raises(DeploymentError, match="no such operator"):
            state.apply(refused)
        assert state.deployment("q") is None

    assert state.revision > revision  # readers look again...
    assert all(not state.has_view(*key) for key in state.changes_since(cursor) or ())
    assert observed() == before  # ... and find what was there.
    assert state.view_origin(imported, 2) is None


def test_restore_rebuilds_the_claims_in_apply_order(abcd):
    """``Join(AB, C*D)`` reusing ``A*B`` (installed after ``C*D``) outlives
    both installers: its retirement drops ``A*B``, ``C*D`` and its root,
    in plan order, not install order -- after ``restore`` as after
    ``clone``."""
    costs, rates, query = abcd
    state = DeploymentState(costs, rates.rate, rates.source)
    a, b, c, d = (Leaf.of(s) for s in "ABCD")
    ab, cd = Join(a, b), Join(c, d)
    cd_only = Query("cd", "CD", 7, [JoinPredicate("C", "D", 0.1)])
    ab_only = Query("ab", "AB", 7, [JoinPredicate("A", "B", 0.1)], query.filters)
    state.apply(Deployment(cd_only, cd, {c: 4, d: 6, cd: 5}))
    state.apply(Deployment(ab_only, ab, {a: 0, b: 2, ab: 1}))
    view = Leaf(frozenset("AB"))
    plan = Join(view, cd)
    state.apply(Deployment(query, plan, {view: 1, c: 4, d: 6, cd: 5, plan: 3}))
    state.undeploy("cd")
    state.undeploy("ab")
    expected = [
        (query.view_signature("AB"), 1),
        (query.view_signature("CD"), 5),
        (query.view_signature(), 3),
    ]
    assert state.operator_serial(*expected[1]) < state.operator_serial(*expected[0])

    restored = DeploymentState(costs, rates.rate, rates.source)
    restored.restore(
        state.deployments,
        [(r.signature, r.node, r.rate, set(r.queries), r.origin) for r in state.operator_records()],
        state.flows(),
    )
    for other in (state.clone(), restored):
        cursor = other.feed_cursor()
        other.undeploy("q")
        assert other.changes_since(cursor) == expected
        assert other.operators() == []


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
@contextmanager
def counting_signatures():
    """Count ``Query.view_signature`` calls while the block runs."""
    calls = Counter()
    original = Query.view_signature

    def counted(self, subset=None):
        calls["derived"] += 1
        return original(self, subset)

    Query.view_signature = counted
    try:
        yield calls
    finally:
        Query.view_signature = original


def test_a_cache_hit_derives_each_signature_once_and_a_retire_none():
    net = repro.transit_stub_by_size(64, seed=3)
    hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=10, num_queries=41, joins_per_query=(1, 4)),
        seed=4,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    service = repro.StreamQueryService(
        repro.TopDownOptimizer(hierarchy, rates, ads=ads),
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=repro.AdmissionController(budget=512),
    )
    pool = list(workload)
    for serial in range(120):
        base = pool[serial % len(pool)]
        service.submit(base.renamed(f"{base.name}#{serial}"))
    service.tick()
    checked = 0
    for base in sorted(pool, key=lambda q: -len(q.sources))[:6]:
        hits = service.cache.hits
        with counting_signatures() as calls:
            assert service.submit(base.renamed(f"{base.name}#twin")).admitted
        assert service.cache.hits == hits + 1
        assert calls["derived"] <= 2 * len(base.sources) - 1
        with counting_signatures() as calls:
            assert service.retire(f"{base.name}#twin")
        assert calls["derived"] == 0
        checked += 1
    assert checked == 6
