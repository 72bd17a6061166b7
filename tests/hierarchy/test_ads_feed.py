"""The advertisement index's feed path against the literal reconcile.

``AdvertisementIndex.sync_from_state`` reads the deployment state's
operator-set feed and reconciles only the keys that changed;
``reference_ads.reference_sync`` visits every live and every advertised
view, as the method did before.  Two layers of evidence that they are
the same function of (index, state):

* a hypothesis state machine over everything that moves the operator
  set or the index -- deploy, retire, retire-and-reinstall or a
  migration between two syncs, the federation's import / withdraw /
  promote calls, direct ``advertise_view`` / ``withdraw_view``, a sync
  from a ``clone()``, ``restore()``, more changes than the feed keeps,
  ``recompute_costs`` and ``recompute_rates`` -- asserting after every
  step the same index, the same message count and
  span counters, and that the state's cached flow prices sum to exactly
  the fresh sum;
* a work-count gate: at 400 live queries a deploy examines at most its
  own joins and a plan-cache hit nothing, so an O(live) regression fails
  without a clock.
"""

import itertools
from collections import Counter

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

import repro
from repro.fleet import FEDERATION_OWNER
from repro.obs.tracer import Tracer
from repro.perf.profiler import profiled
from repro.query.deployment import _FEED_LIMIT, Deployment, DeploymentState
from repro.query.plan import Leaf
from repro.service import StreamQueryService
from repro.service.cache import CachedPlan, PlanCache

from tests.fleet.conftest import renamed
from tests.hierarchy.reference_ads import reference_sync

_POOL = 8
_NODES = 32
_COUNTERS = ("ads_views_published", "ads_views_withdrawn", "ads_messages")


def build_world():
    net = repro.transit_stub_by_size(_NODES, seed=47)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=_POOL, joins_per_query=(1, 3)),
        seed=48,
    )
    return net, hierarchy, workload.rate_model(), list(workload)


class AdsFeedMachine(RuleBasedStateMachine):
    """One deployment state, the index under test and its literal twin."""

    #: What the explored examples exercised, summed over a whole run.
    seen: Counter

    def __init__(self) -> None:
        super().__init__()
        net, self.hierarchy, self.rates, self.pool = build_world()
        self.costs = net.cost_matrix()
        self.state = DeploymentState(self.costs, self.rates.rate, self.rates.source)
        self.fast, self.slow = self.index(), self.index()
        self.optimizer = repro.TopDownOptimizer(self.hierarchy, self.rates, ads=self.fast)
        #: The flat, application-ordered flow list the state used to keep.
        self.flows: list = []
        self.imports: list[tuple] = []
        self.captured = None
        self.serial = itertools.count()
        # Every example starts busy: live queries, and an import a local
        # query consumes (so withdrawing it promotes).
        for index in range(4):
            self.deploy(index)
            self.matches_the_literal_reconcile()
        self.import_view(5, 9)
        self.ride()
        self.matches_the_literal_reconcile()

    def index(self):
        ads = repro.AdvertisementIndex(self.hierarchy, tracer=Tracer())
        for name, spec in self.rates.streams.items():
            ads.advertise_base(name, spec.source)
        return ads

    def installed(self, deployment: Deployment) -> None:
        self.state.apply(deployment)
        name = deployment.query.name
        self.flows += [f for f in self.state.flows() if f.query == name]

    def retired(self, name: str) -> None:
        self.state.undeploy(name)
        self.flows = [f for f in self.flows if f.query != name]

    def sync(self, state) -> None:
        self.fast.sync_from_state(state)
        reference_sync(self.slow, state)
        assert self.fast.views() == self.slow.views() == state.advertised_views()
        assert self.fast.messages_sent == self.slow.messages_sent
        fast, slow = self.fast.tracer.roots[-1], self.slow.tracer.roots[-1]
        assert fast.name == slow.name == "ads_sync"
        assert fast.counters == slow.counters
        self.seen["messages"] += sum(fast.counters.get(c, 0) for c in _COUNTERS)

    # -- the operator set ------------------------------------------------
    @rule(index=st.integers(0, _POOL - 1))
    def deploy(self, index):
        base = self.pool[index]
        query = renamed(base, f"{base.name}#{next(self.serial)}")
        reference_sync(self.slow, self.state)  # the planner syncs its index
        self.installed(self.optimizer.plan(query, self.state))
        self.seen["deployed"] += 1

    @rule(data=st.data())
    def retire(self, data):
        live = self.state.deployments
        if live:
            self.retired(data.draw(st.sampled_from(live)).query.name)
            self.seen["retired"] += 1

    @rule(data=st.data())
    def bounce(self, data):
        """Retire and reinstall between two syncs: the same keys in a
        new install order, and no message."""
        own = [d for d in self.state.deployments if not d.reused_leaves()]
        if own:
            deployment = data.draw(st.sampled_from(own))
            cursor = self.state.feed_cursor()
            self.retired(deployment.query.name)
            self.installed(deployment)
            changed = self.state.changes_since(cursor)
            self.seen["net_zero"] += len(set(changed)) < len(changed)

    @rule(data=st.data(), node=st.integers(0, _NODES - 1))
    def relocate(self, data, node):
        """Move a root operator between two syncs (a migration): its
        signature gains a node and loses one in the same sync."""
        own = [
            d
            for d in self.state.deployments
            if d.plan.num_joins and not d.reused_leaves() and d.placement[d.plan] != node
        ]
        if own:
            old = data.draw(st.sampled_from(own))
            self.retired(old.query.name)
            self.installed(
                Deployment(old.query, old.plan, {**old.placement, old.plan: node})
            )
            sig = old.query.view_signature()
            self.seen["relocated"] += not self.state.has_view(sig, old.placement[old.plan])

    # -- what ReuseFederation.sync does to a shard -------------------------
    @rule(index=st.integers(0, _POOL - 1), node=st.integers(0, _NODES - 1))
    def import_view(self, index, node):
        query = self.pool[index]
        sig = query.view_signature()
        if not self.state.has_view(sig, node):
            rate = self.rates.rate_for(query, sig.sources)
            self.state.register_external_view(sig, node, rate, FEDERATION_OWNER)
            for ads in (self.fast, self.slow):
                ads.advertise_view(sig, node)
            self.imports.append((sig, node))
            self.seen["imported"] += 1

    @rule()
    def ride(self):
        """A local query consuming the newest import whole."""
        if self.imports:
            sig, node = self.imports[-1]
            base = next(q for q in self.pool if q.view_signature() == sig)
            query = renamed(base, f"rider#{next(self.serial)}")
            view = Leaf(frozenset(query.sources))
            self.installed(Deployment(query, view, {view: node}))

    @rule(data=st.data())
    def drop_import(self, data):
        if self.imports:
            sig, node = key = data.draw(st.sampled_from(self.imports))
            self.imports.remove(key)
            if self.state.unregister_external_view(sig, node, FEDERATION_OWNER):
                for ads in (self.fast, self.slow):
                    if node in ads.view_nodes(sig):
                        ads.withdraw_view(sig, node)
                self.seen["withdrawn"] += 1
            else:
                self.seen["promoted"] += 1

    # -- the index, directly ---------------------------------------------
    @rule(index=st.integers(0, _POOL - 1), node=st.integers(0, _NODES - 1))
    def ghost_ad(self, index, node):
        """An advertisement no operator backs: the next sync withdraws it."""
        sig = self.pool[index].view_signature()
        if not self.state.has_view(sig, node):
            for ads in (self.fast, self.slow):
                ads.advertise_view(sig, node)
            self.seen["ghost_ad"] += 1

    @rule(data=st.data())
    def hide(self, data):
        """A live view withdrawn by hand: the next sync re-advertises it."""
        keys = self.state.operators()
        if keys:
            sig, node = data.draw(st.sampled_from(keys))
            for ads in (self.fast, self.slow):
                ads.withdraw_view(sig, node)
            self.seen["direct_withdraw"] += 1

    # -- another state, another log ----------------------------------------
    @rule(data=st.data())
    def shadow(self, data):
        """Sync from a clone that moved on; the next step comes back."""
        clone = self.state.clone()
        if clone.deployments:
            clone.undeploy(data.draw(st.sampled_from(clone.deployments)).query.name)
        assert clone.changes_since(self.fast._cursor) is None
        self.sync(clone)
        self.seen["shadow"] += 1

    @rule()
    def capture(self):
        state = self.state
        self.captured = (
            state.deployments,
            [
                (r.signature, r.node, r.rate, set(r.queries), r.origin)
                for r in state.operator_records()
            ],
            state.flows(),
        )

    @rule()
    def restore(self):
        if self.captured is not None:
            deployments, operators, flows = self.captured
            self.state.restore(deployments, operators, flows)
            self.flows = list(flows)
            self.imports = [
                (r.signature, r.node)
                for r in self.state.operator_records()
                if FEDERATION_OWNER in r.queries
            ]
            assert self.state.changes_since(self.fast._cursor) is None
            self.seen["restore"] += 1

    @rule(data=st.data(), index=st.integers(0, _POOL - 1), node=st.integers(0, _NODES - 1))
    def overflow(self, data, index, node):
        """More changes between two syncs than the feed keeps."""
        sig = self.pool[index].view_signature()
        if self.state.has_view(sig, node):
            return
        cursor = self.state.feed_cursor()
        if self.state.deployments:
            self.retired(data.draw(st.sampled_from(self.state.deployments)).query.name)
        for _ in range(_FEED_LIMIT):
            self.state.register_external_view(sig, node, 1.0, "churn")
            self.state.unregister_external_view(sig, node, "churn")
        assert self.state.changes_since(cursor) is None
        self.seen["overflow"] += 1

    # -- prices ------------------------------------------------------------
    @rule(factor=st.sampled_from([0.5, 1.5, 3.0]))
    def recompute_costs(self, factor):
        self.costs = self.costs * factor
        self.state.recompute_costs(self.costs)
        self.seen["recompute_costs"] += 1

    @rule()
    def recompute_rates(self):
        self.state.recompute_rates()  # same statistics: the same flows again

    # ----------------------------------------------------------------------
    @invariant()
    def matches_the_literal_reconcile(self):
        state = self.state
        covered = state.changes_since(self.fast._cursor) is not None
        self.seen["delta" if covered else "full"] += 1
        self.sync(state)

        flows = state.flows()
        assert flows == self.flows
        assert state.total_cost() == sum(f.cost(self.costs) for f in flows)
        for deployment in state.deployments:
            name = deployment.query.name
            assert state.query_cost(name) == sum(
                f.cost(self.costs) for f in flows if f.query == name
            )
        live = {sig for sig, _ in state.operators()}
        for query in self.pool:
            assert state.has_view(query.view_signature()) == (query.view_signature() in live)
        serials = [state.operator_serial(*key) for key in state.operators()]
        assert serials == sorted(serials)


#: Derandomized: the same examples every run, so the transitions the
#: test insists on having been exercised are exercised every run.
_MACHINE = settings(
    max_examples=25, stateful_step_count=40, deadline=None, derandomize=True
)


def test_feed_path_matches_the_literal_reconcile_after_every_step():
    AdsFeedMachine.seen = seen = Counter()
    run_state_machine_as_test(AdsFeedMachine, settings=_MACHINE)
    for transition in (
        "deployed", "retired", "net_zero", "relocated", "imported", "withdrawn", "promoted",
        "ghost_ad", "direct_withdraw", "shadow", "restore", "overflow",
        "recompute_costs", "delta", "full", "messages",
    ):
        assert seen[transition], f"no example exercised {transition}: {dict(seen)}"


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
class TestWorkCounts:
    def test_a_sync_examines_what_changed_not_what_is_live(self):
        net = repro.transit_stub_by_size(64, seed=3)
        hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=10, num_queries=41, joins_per_query=(1, 3)),
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
            admission=repro.AdmissionController(budget=512),
        )
        *pool, last = workload
        with profiled() as prof:
            for serial in range(400):
                base = pool[serial % len(pool)]
                service.submit(renamed(base, f"{base.name}#{serial}"))
        state = service.engine.state
        assert state.num_deployments == 400
        # The very first sync visits everything (nothing, then); each
        # later one only its own delta: the fill as a whole examines
        # about one key per operator ever installed.
        assert prof.ops["ads_keys_examined"] <= 2 * state.num_operators

        with profiled() as prof:
            assert service.submit(last).admitted
        own = state.deployment(last.name)
        assert 0 < prof.ops["ads_keys_examined"] <= len(own.plan.joins())

        operators = sum(1 for node in own.plan.subtrees() if len(node.sources) > 1)
        with profiled() as prof:
            assert service.retire(last.name)
        assert prof.ops.get("ads_keys_examined", 0) <= operators

        hits = service.cache.hits
        with profiled() as prof:
            assert service.submit(renamed(pool[0], "twin")).admitted
            service.tick()
        assert service.cache.hits == hits + 1
        assert prof.ops.get("ads_keys_examined", 0) == 0
        assert ads.views() == state.advertised_views()

    def test_evict_referencing_walks_only_the_referencing_entries(self):
        class Counted(CachedPlan):
            walks = 0

            def reused_views(self):
                Counted.walks += 1
                return super().reused_views()

        cache = PlanCache(capacity=256)
        c = Leaf.of("C")
        for serial in range(300):  # 44 of them LRU-evicted again
            view = Leaf(frozenset("AB" if serial % 16 == 0 else "AD"))
            plan = repro.Join(view, c)
            cache.put(
                cache.key(f"fp{serial}", 0, 0),
                Counted(plan, {view: serial % 2, c: 3, plan: 5}),
            )
        assert len(cache) == 256
        referencing = [
            serial for serial in range(44, 300) if serial % 16 == 0
        ]  # all on node 0
        Counted.walks = 0
        assert cache.evict_referencing(frozenset("AB"), 0) == len(referencing)
        assert Counted.walks == len(referencing)
        assert len(cache) == 256 - len(referencing)
        assert cache.evict_referencing(frozenset("AB"), 0) == 0
        assert cache.evict_referencing(frozenset("AB"), 1) == 0
        assert Counted.walks == len(referencing)
