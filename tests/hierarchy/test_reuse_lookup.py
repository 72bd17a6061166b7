"""The index's lookup by signature against the scan it replaced.

``AdvertisementIndex.reusable_views(query)`` enumerates the query's own
stream subsets and fetches each candidate signature;
``reference_ads.reference_reusable`` walks every advertised view and
filters, as both planners' ``_candidate_leaf_sets`` did before.  Two
layers of evidence that they are the same function of (index, hierarchy,
cluster, query):

* a hypothesis state machine over everything that moves the index or
  the subtrees -- direct ``advertise_view`` / ``withdraw_view`` (and a
  withdrawn signature advertised again), ``sync_from_state`` after a
  deploy and after a retire, ``remove_node`` / ``add_node`` -- with
  queries that share a stream set but differ in a predicate or a
  filter, asserting after every step, for every query and every cluster
  of every level, the same signatures with the same node sets, from
  lookups made before the step (order is not part of the answer: the
  planners order their reuse groupings themselves);
* a work-count gate: at 200 live queries one plan fetches at most its
  query's ``2^n - n - 1`` sub-views per planning task, under either
  planner, so a lookup that grows with the index fails without a clock.
"""

import itertools
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
from repro.hierarchy.maintenance import add_node, remove_node
from repro.perf.profiler import profiled
from repro.query.deployment import DeploymentState
from repro.query.stream import Filter
from repro.service import StreamQueryService

from tests.fleet.conftest import renamed
from tests.hierarchy.reference_ads import reference_reusable

_NODES = 32


def build_world():
    net = repro.transit_stub_by_size(_NODES, seed=47)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=6, joins_per_query=(1, 3)),
        seed=48,
    )
    return net, hierarchy, workload.rate_model(), list(workload)


def variants(query):
    """The query, and two over the same streams that share none of its
    multi-stream views: another selectivity on one predicate, a filter
    on one stream."""
    first, *rest = query.predicates
    other = repro.JoinPredicate(first.left, first.right, first.selectivity / 2)
    yield query
    yield repro.Query(
        f"{query.name}~pred", query.sources, query.sink, [other, *rest], query.filters
    )
    yield repro.Query(
        f"{query.name}~filter",
        query.sources,
        query.sink,
        query.predicates,
        [*query.filters, Filter(first.left, "x > 0", 0.5)],
    )


class ReuseLookupMachine(RuleBasedStateMachine):
    """One index and hierarchy, asked by signature and by scan."""

    #: What the explored examples exercised, summed over a whole run.
    seen: Counter

    def __init__(self) -> None:
        super().__init__()
        net, self.hierarchy, self.rates, base = build_world()
        self.pool = [v for query in base for v in variants(query)]
        self.state = DeploymentState(net.cost_matrix(), self.rates.rate, self.rates.source)
        self.ads = repro.AdvertisementIndex(self.hierarchy)
        for name, spec in self.rates.streams.items():
            self.ads.advertise_base(name, spec.source)
        self.optimizer = repro.TopDownOptimizer(self.hierarchy, self.rates, ads=self.ads)
        # Lookups outlive the steps: they read the index and the
        # hierarchy as they are when asked, not as they were when made.
        self.lookups = [self.ads.reusable_views(query) for query in self.pool]
        #: Nodes a query starts or ends at stay, so every query stays plannable.
        self.pinned = {n for query in self.pool for n in self.rates.endpoints(query)}
        self.away: list[int] = []
        #: Signatures whose last advertising node was withdrawn by hand.
        self.gone: list = []
        self.serial = itertools.count()
        for index in (0, 4, 8):
            self.deploy(index)

    # -- the index, directly ---------------------------------------------
    @rule(data=st.data(), index=st.integers(0, 17), node=st.integers(0, _NODES - 1))
    def advertise(self, data, index, node):
        query = self.pool[index]
        size = data.draw(st.integers(2, len(query.sources)))
        subset = data.draw(st.sampled_from(list(itertools.combinations(query.sources, size))))
        if node not in self.away:
            self.ads.advertise_view(query.view_signature(subset), node)

    @rule(data=st.data(), node=st.integers(0, _NODES - 1))
    def readvertise(self, data, node):
        """A signature that left the index comes back."""
        gone = [sig for sig in self.gone if sig not in self.ads.views()]
        if gone and node not in self.away:
            self.ads.advertise_view(data.draw(st.sampled_from(gone)), node)
            self.seen["readvertised"] += 1

    @rule(data=st.data())
    def withdraw(self, data):
        views = self.ads.views()
        if views:
            sig = data.draw(st.sampled_from(list(views)))
            node = data.draw(st.sampled_from(sorted(views[sig])))
            self.ads.withdraw_view(sig, node)
            if sig not in self.ads.views():
                self.gone.append(sig)
                self.seen["signature_left"] += 1

    # -- the operator set --------------------------------------------------
    @rule(index=st.integers(0, 17))
    def deploy(self, index):
        base = self.pool[index]
        query = renamed(base, f"{base.name}#{next(self.serial)}")
        self.state.apply(self.optimizer.plan(query, self.state))
        self.ads.sync_from_state(self.state)
        self.seen["deployed"] += 1

    @rule(data=st.data())
    def retire(self, data):
        if self.state.deployments:
            self.state.undeploy(data.draw(st.sampled_from(self.state.deployments)).query.name)
            self.ads.sync_from_state(self.state)
            self.seen["retired"] += 1

    # -- the subtrees ------------------------------------------------------
    @rule(data=st.data())
    def leave(self, data):
        busy = {node for _, node in self.state.operators()}
        free = sorted(self.hierarchy.subtree(self.hierarchy.root) - self.pinned - busy)
        # A node that leaves while still advertised (by hand: nothing
        # runs on it) is the case worth having; any other when none is,
        # which is then advertised on by hand or not.
        advertising = set().union(*self.ads.views().values())
        if free:
            node = data.draw(st.sampled_from([n for n in free if n in advertising] or free))
            if node not in advertising and data.draw(st.booleans()):
                query = data.draw(st.sampled_from(self.pool))
                self.ads.advertise_view(query.view_signature(), node)
                advertising.add(node)
            self.seen["left_advertising"] += node in advertising
            remove_node(self.hierarchy, node)
            self.away.append(node)

    @rule(data=st.data())
    def join(self, data):
        if self.away:
            node = data.draw(st.sampled_from(self.away))
            self.away.remove(node)
            add_node(self.hierarchy, node, seed=node)
            self.seen["joined"] += 1

    # ----------------------------------------------------------------------
    @invariant()
    def asks_what_the_scan_finds(self):
        clusters = [c for level in self.hierarchy.levels for c in level]
        for query, lookup in zip(self.pool, self.lookups):
            for cluster in clusters:
                found = lookup(cluster)
                expected = reference_reusable(self.ads, cluster, query)
                assert found == expected, (query.name, cluster)
                self.seen["views"] += len(found)
                self.seen["scoped"] += any(
                    nodes != self.ads.view_nodes(sig) for sig, nodes in found.items()
                )
        by_sources = Counter(sig.sources for sig in self.ads.views())
        self.seen["shared_sources"] += max(by_sources.values(), default=0) > 1


#: Derandomized: the same examples every run, so the transitions the
#: test insists on having been exercised are exercised every run.
_MACHINE = settings(
    max_examples=20, stateful_step_count=30, deadline=None, derandomize=True
)


def test_lookup_by_signature_matches_the_scan_after_every_step():
    ReuseLookupMachine.seen = seen = Counter()
    run_state_machine_as_test(ReuseLookupMachine, settings=_MACHINE)
    for transition in (
        "deployed", "retired", "signature_left", "readvertised", "left_advertising",
        "joined", "views", "scoped", "shared_sources",
    ):
        assert seen[transition], f"no example exercised {transition}: {dict(seen)}"


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("planner", [repro.TopDownOptimizer, repro.BottomUpOptimizer])
def test_a_plan_probes_its_own_sub_views_not_the_index(planner):
    net = repro.transit_stub_by_size(64, seed=3)
    hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=10, num_queries=41, joins_per_query=(1, 4)),
        seed=4,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = planner(hierarchy, rates, ads=ads)
    service = StreamQueryService(
        optimizer,
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=repro.AdmissionController(budget=512),
    )
    *pool, _ = workload
    last = max(workload, key=lambda q: len(q.sources))
    for serial in range(200):
        base = pool[serial % len(pool)]
        service.submit(renamed(base, f"{base.name}#{serial}"))
    state = service.engine.state
    assert state.num_deployments == 200

    n = len(last.sources)
    sub_views = 2**n - n - 1
    assert len(ads.views()) > 2 * sub_views  # a scan would show
    with profiled() as prof:
        stats = optimizer.plan(renamed(last, "probe"), state).stats
    # Top-Down asks once per task; a Bottom-Up climb step plans at most
    # n // 2 components of two or more inputs.
    asked = stats["tasks"] if "tasks" in stats else stats["levels_climbed"] * (n // 2)
    assert 0 < prof.ops["ads_views_probed"] <= asked * sub_views
