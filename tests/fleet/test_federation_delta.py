"""The per-key federation sync against the whole-index plan.

``ReuseFederation.sync`` keeps a ``key -> shards offering it`` map
current from every shard's operator-set feed and decides only on the
keys whose offers changed; ``reference_federation.reference_plan``
collects every shard's exports and recomputes every shard's desired
import set, as the method did before.  Three layers of evidence that
they are the same function of (shard states, import sets):

* a hypothesis state machine over everything that moves a shard's
  export set or the import sets -- submit to a chosen shard, a twin on
  another shard, retire, tick, an owner retiring under an importer's
  live query (promotion), a promoted view's new exporter retiring,
  ``restore_imports`` mid-run, a ``DeploymentState.restore`` whose feed
  cannot answer, ``exports()`` read between two syncs -- comparing
  before every sync the drops, the imports, their owners and their
  application order;
* the order of simultaneous withdrawals and of the snapshot's import
  list is total: signatures told apart by their filters only come out
  the same way whichever was imported first;
* a work-count gate: at 200 live on 4 shards a sync examines what
  changed since the last one, not what is exported, so an O(exports)
  regression fails without a clock.

None of the per-key state is written to disk: a crash test checks that
a recovered fleet rebuilds it, a promoted view still waiting for its
next sync included.
"""

import itertools
import json
from collections import Counter

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

import pytest

import repro
from repro.durability import DurabilityConfig, recover
from repro.durability.journal import SimulatedCrash, canonical_json
from repro.fleet import FEDERATION_OWNER
from repro.fleet.federation import import_rank
from repro.perf.profiler import profiled
from repro.resilience.faults import CrashPoint

from tests.fleet.conftest import ByNamePolicy, build_env, build_fleet
from tests.fleet.reference_federation import imports_of, reference_offers, reference_plan
from tests.fleet.test_federation import scanned_exports

_SHARDS = 3
_POOL = 10  # queries in the conftest world


class FederationMachine(RuleBasedStateMachine):
    """A 3-shard fleet whose every sync is checked against the oracle."""

    #: What the explored examples exercised, summed over a whole run.
    seen: Counter
    world = None

    def __init__(self) -> None:
        super().__init__()
        cls = type(self)
        if cls.world is None:
            cls.world = build_env()
        self.pool = list(cls.world[2])
        self.pins: dict[str, int] = {}
        self.fleet = build_fleet(
            cls.world, num_shards=_SHARDS, policy=ByNamePolicy(self.pins), budget=64
        )
        self.federation = federation = self.fleet.federation
        self.serial = itertools.count()
        self.synced = 0
        #: Keys some shard took over from a retired owner.
        self.promoted: set[tuple] = set()
        apply = federation.sync

        def checked_sync():
            plan, offers = self.before_sync()
            result = apply()
            self.after_sync(plan, offers, result)
            return result

        federation.sync = checked_sync
        # Every example starts busy: a view two shards deploy between
        # two syncs, and an import a live query of another shard reuses.
        self.submit(0, 0, None)
        self.twin_of(self.name_of(0), 1, same_sink=True)
        self.fleet.tick()
        self.submit(1, 0, None)
        self.fleet.tick()
        self.twin_of(self.name_of(1), 2, same_sink=False)

    def name_of(self, index: int) -> str:
        prefix = self.pool[index].name + "#"
        return next(name for name in self.fleet.live_queries if name.startswith(prefix))

    def state(self, shard: int):
        return self.fleet.shards[shard].engine.state

    # -- the comparison ----------------------------------------------------
    def before_sync(self):
        federation, seen = self.federation, self.seen
        feeds_answer = all(
            self.state(sid).changes_since(federation._cursors[sid]) is not None
            for sid in range(_SHARDS)
        )
        offers = reference_offers(federation)
        expected = reference_plan(federation)
        plan = federation._plan()
        assert plan == expected
        assert federation._plan() == expected  # planning consumes nothing
        seen["delta" if feeds_answer else "full_rescan"] += bool(self.synced)
        for _, adds in plan:
            for key, owner in adds:
                assert owner == offers[key][0]
                seen["two_offers"] += len(offers[key]) > 1
                seen["reimport_after_promotion"] += key in self.promoted
        return plan, offers

    def after_sync(self, plan, offers, result) -> None:
        federation = self.federation
        self.synced += 1
        promoted = [
            (sid, key)
            for sid, (drops, _) in enumerate(plan)
            for key in drops
            if self.state(sid).has_view(*key)
        ]
        self.promoted.update(key for _, key in promoted)
        assert result == {
            "imported": sum(len(adds) for _, adds in plan),
            "withdrawn": sum(len(drops) for drops, _ in plan) - len(promoted),
            "promoted": len(promoted),
        }
        self.seen["promotion"] += len(promoted)
        self.seen["withdrawal"] += result["withdrawn"]
        # What the whole-index sync maintained: a shard imports exactly
        # the offered keys it does not offer itself.
        for sid in range(_SHARDS):
            assert imports_of(federation, sid) == {
                key for key, offered in offers.items() if sid not in offered
            }
            for key in imports_of(federation, sid):
                assert FEDERATION_OWNER in self.state(sid).queries_using(*key)
        # A sync leaves nothing to do but offering what it promoted.
        for sid, (drops, adds) in enumerate(reference_plan(federation)):
            assert not drops
            assert {key for key, _ in adds} <= self.promoted

    # -- the shards ----------------------------------------------------------
    @rule(
        index=st.integers(0, _POOL - 1),
        shard=st.integers(0, _SHARDS - 1),
        lifetime=st.sampled_from([None, 2.0, 4.0]),
    )
    def submit(self, index, shard, lifetime):
        base = self.pool[index]
        name = f"{base.name}#{next(self.serial)}"
        self.pins[name] = shard
        self.fleet.submit(base.renamed(name), lifetime=lifetime)

    def twin_of(self, name: str, shard: int, same_sink: bool) -> None:
        query = self.state(self.fleet.shard_of(name)).deployment(name).query
        nodes = len(self.world[0].nodes())
        twin = f"{name.split('#')[0]}#{next(self.serial)}"
        self.pins[twin] = shard
        sink = query.sink if same_sink else (query.sink + 5) % nodes
        self.fleet.submit(query.renamed(twin, sink=sink))

    @rule(data=st.data(), hop=st.integers(1, _SHARDS - 1), same_sink=st.booleans())
    def twin(self, data, hop, same_sink):
        """The same query again on another shard: it reuses what that
        shard imported, or deploys operators the first shard also has."""
        live = sorted(self.fleet.live_queries)
        if live:
            name = data.draw(st.sampled_from(live))
            shard = (self.fleet.shard_of(name) + hop) % _SHARDS
            self.twin_of(name, shard, same_sink)

    @rule(data=st.data())
    def retire(self, data):
        live = sorted(self.fleet.live_queries)
        if live:
            self.fleet.retire(data.draw(st.sampled_from(live)))

    @rule()
    def tick(self):
        self.fleet.tick()

    def retire_every_offer(self, key) -> None:
        for sid in reference_offers(self.federation).get(key, ()):
            consumers = self.state(sid).queries_using(*key)
            for name in sorted(consumers & set(self.fleet.live_queries)):
                self.fleet.retire(name)

    @rule(data=st.data())
    def owner_retires_under_a_reuser(self, data):
        """Every shard offering a view lets it go while another shard's
        live query reuses its import of it: that shard takes it over."""
        consumed = sorted(
            {
                key
                for sid in range(_SHARDS)
                for key in imports_of(self.federation, sid)
                if self.state(sid).queries_using(*key) - {FEDERATION_OWNER}
            },
            key=import_rank,
        )
        if consumed:
            promoted = self.federation.promoted_total
            self.retire_every_offer(data.draw(st.sampled_from(consumed)))
            assert self.federation.promoted_total > promoted

    @rule(data=st.data())
    def promoted_exporter_retires(self, data):
        offered = sorted(
            self.promoted.intersection(reference_offers(self.federation)), key=import_rank
        )
        if offered:
            self.retire_every_offer(data.draw(st.sampled_from(offered)))
            self.seen["promoted_exporter_retired"] += 1

    # -- recovery, mid-run -----------------------------------------------------
    @rule(
        data=st.data(),
        shard=st.integers(0, _SHARDS - 1),
        edit=st.sampled_from(["same", "orphaned", "forgotten"]),
    )
    def restore_imports(self, data, shard, edit):
        """The import sets handed back as recovery does -- as they are,
        with an import nobody offers, or without one whose record the
        shard lost: the next sync drops the one and imports the other
        again, though no shard's offers changed."""
        federation, state = self.federation, self.state(shard)
        imports = [imports_of(federation, sid) for sid in range(_SHARDS)]
        if edit == "orphaned":
            sig = data.draw(st.sampled_from(self.pool)).view_signature()
            key = (sig, data.draw(st.integers(0, 31)))
            if any(self.state(sid).has_view(*key) for sid in range(_SHARDS)):
                return
            state.register_external_view(*key, 1.0, FEDERATION_OWNER)
            imports[shard].add(key)
        elif edit == "forgotten":
            idle = sorted(
                (
                    key
                    for key in imports[shard]
                    if state.queries_using(*key) == {FEDERATION_OWNER}
                ),
                key=import_rank,
            )
            if not idle:
                return
            key = data.draw(st.sampled_from(idle))
            state.unregister_external_view(*key, FEDERATION_OWNER)
            imports[shard].remove(key)
        federation.restore_imports(imports)
        self.seen[f"restore_imports_{edit}"] += 1

    @rule(shard=st.integers(0, _SHARDS - 1))
    def restore_state(self, shard):
        """The shard's state put back as it is: a new feed, which cannot
        say what changed since the federation last read the old one."""
        state = self.state(shard)
        state.restore(
            state.deployments,
            [
                (r.signature, r.node, r.rate, set(r.queries), r.origin)
                for r in state.operator_records()
            ],
            state.flows(),
        )
        assert state.changes_since(self.federation._cursors[shard]) is None
        self.seen["restore_state"] += 1

    @rule(shard=st.integers(0, _SHARDS - 1))
    def read_exports(self, shard):
        """A read between two syncs moves the feed cursor; what it
        learnt must still reach the next sync."""
        assert self.federation.exports(shard) == scanned_exports(self.fleet, shard)
        self.seen["exports_read"] += 1

    # ----------------------------------------------------------------------
    @invariant()
    def settles(self):
        self.federation.sync()
        assert self.fleet.check_invariants() == []


#: Derandomized: the same examples every run, so the transitions the
#: test insists on having been exercised are exercised every run.
_MACHINE = settings(
    max_examples=20, stateful_step_count=30, deadline=None, derandomize=True
)


def test_per_key_plan_matches_the_whole_index_plan_before_every_sync():
    FederationMachine.seen = seen = Counter()
    run_state_machine_as_test(FederationMachine, settings=_MACHINE)
    for transition in (
        "promotion", "reimport_after_promotion", "full_rescan", "two_offers",
        "delta", "withdrawal", "promoted_exporter_retired", "restore_imports_same",
        "restore_imports_orphaned", "restore_imports_forgotten", "restore_state",
        "exports_read",
    ):
        assert seen[transition], f"no example exercised {transition}: {dict(seen)}"


# ----------------------------------------------------------------------
# One order for imports that differ in filters only
# ----------------------------------------------------------------------
def tying_queries(fleet_env):
    """Two queries over the same streams to the same sink, told apart by
    one filter's text: their operators share labels and nodes."""
    _, _, workload, _ = fleet_env
    base = workload.queries[0]
    return [
        repro.Query(
            name,
            base.sources,
            base.sink,
            base.predicates,
            [repro.Filter(base.sources[0], text, 0.5)],
        )
        for name, text in (("low", "x > 1"), ("high", "x > 2"))
    ]


def tie_run(fleet_env, state_dir, reverse: bool):
    """Import both queries' views on shard 1 (inserted in rank order or
    against it), snapshot, let both owners expire in one tick."""
    queries = tying_queries(fleet_env)
    fleet = build_fleet(
        fleet_env,
        num_shards=2,
        policy=ByNamePolicy({}, default=0),
        durability=DurabilityConfig(state_dir=str(state_dir), snapshot_interval=10**6),
    )
    try:
        for query in queries:
            fleet.submit(query, lifetime=2.0)
        fleet.tick()
        federation = fleet.federation
        imported = sorted(imports_of(federation, 1), key=import_rank, reverse=reverse)
        ties = Counter(("|".join(sorted(sig.sources)), node) for sig, node in imported)
        assert max(ties.values()) == 2, "two imports must tie on (sources, node)"
        federation.restore_imports([set(), imported])
        assert federation.sync() == {"imported": 0, "withdrawn": 0, "promoted": 0}
        # The federation's section of the file (elsewhere the snapshot
        # carries wall-clock planning latencies).
        snapshot = json.loads(fleet.durability.snapshot(fleet.clock).read_bytes())
        snapshot = canonical_json(snapshot["state"]["federation"])

        ads = fleet.shards[1].ads
        advertised = list(ads.views())
        withdrawn = []
        withdraw = ads.withdraw_view

        def recording(sig, node):
            withdrawn.append((sig, node))
            withdraw(sig, node)

        ads.withdraw_view = recording
        while fleet.live_queries:
            fleet.tick()
        gone = [key for key in imported if key not in imports_of(federation, 1)]
        assert sorted(withdrawn, key=import_rank) == sorted(gone, key=import_rank)
        ties = Counter((sig.label(), node) for sig, node in withdrawn)
        assert max(ties.values()) == 2, "two withdrawals must tie on (label, node)"
        return withdrawn, advertised, snapshot
    finally:
        fleet.durability.journal.close()


def test_tying_imports_are_withdrawn_and_snapshotted_in_one_order(fleet_env, tmp_path):
    withdrawn, advertised, snapshot = tie_run(fleet_env, tmp_path / "a", reverse=False)
    assert withdrawn == sorted(withdrawn, key=import_rank)
    texts = [
        [f.predicate for f in sig.filters] for sig, _ in withdrawn if sig.filters
    ]
    assert texts[:2] == [["x > 1"], ["x > 2"]]
    again = tie_run(fleet_env, tmp_path / "b", reverse=True)
    assert again[0] == withdrawn
    assert again[1] == advertised
    assert again[2] == snapshot


# ----------------------------------------------------------------------
# Recovery rebuilds what is derived
# ----------------------------------------------------------------------
@pytest.mark.parametrize("torn", [True, False])
def test_crash_in_the_tick_after_a_promoting_sync(fleet_env, tmp_path, torn):
    net, _, workload, _ = fleet_env
    owner = workload.queries[0]
    reuser = owner.renamed("reuser", sink=(owner.sink + 5) % len(net.nodes()))

    def factory(state_dir):
        return build_fleet(
            fleet_env,
            num_shards=3,
            policy=ByNamePolicy({owner.name: 0, reuser.name: 1}),
            durability=DurabilityConfig(state_dir=str(state_dir), snapshot_interval=1),
        )

    def promote(fleet):
        """Shard 1's live query reuses shard 0's view; the owner expires
        in a tick whose sync promotes shard 1's import and whose
        snapshot is cut before any sync offers it to the other shards:
        the promoted key waits in memory only."""
        fleet.submit(owner, lifetime=3.0)
        fleet.tick()
        fleet.submit(reuser)
        fleet.tick()
        assert fleet.tick().federation["promoted"]

    def observed(fleet):
        return (
            [imports_of(fleet.federation, sid) for sid in range(3)],
            [shard.ads.views() for shard in fleet.shards],
        )

    twin = factory(tmp_path / "twin")
    promote(twin)
    want = []
    for _ in range(4):
        result = twin.tick().federation
        want.append((result, *observed(twin)))
    twin.durability.journal.close()
    assert want[0][0]["imported"], "the promoted view must reach the other shards"

    state_dir = tmp_path / "crashed"
    crashed = factory(state_dir)
    promote(crashed)
    journal = crashed.durability.journal
    # The tick's own command record: lost with the crash (nothing of the
    # tick happened) or durable (recovery replays the tick).
    crashed.durability.arm(
        [CrashPoint(time=crashed.clock, after_lsn=journal.lsn + 1, torn_tail=torn)]
    )
    with pytest.raises(SimulatedCrash):
        crashed.tick()
    journal.close()

    recovered, report = recover(state_dir, lambda: factory(state_dir))
    try:
        done = report.replayed_ticks
        assert done == (0 if torn else 1)
        if done:
            assert observed(recovered) == want[0][1:]
        for expected in want[done : done + 3]:
            result = recovered.tick().federation
            assert (result, *observed(recovered)) == expected
        assert recovered.check_invariants() == []
    finally:
        recovered.durability.journal.close()


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
class TestWorkCounts:
    def test_a_sync_examines_what_changed_not_what_is_exported(self):
        shards, live, per_tick = 4, 200, 2
        net = repro.transit_stub_by_size(64, seed=3)
        hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=16, num_queries=120, joins_per_query=(1, 3)),
            seed=4,
        )
        fleet = repro.FleetController(
            shards, net, workload.rate_model(), hierarchy, policy="hash", budget=512
        )
        federation = fleet.federation
        pool = list(workload)
        serial = itertools.count()

        def churn_tick():
            """Two arrivals, then a tick retiring the two oldest."""
            for _ in range(per_tick):
                index = next(serial)
                base = pool[index % len(pool)]
                twin = base.renamed(f"{base.name}#{index}", sink=(base.sink + index) % 64
                )
                fleet.submit(twin, lifetime=float(live // per_tick + 1))
            return fleet.tick()

        for _ in range(live // per_tick + 5):
            churn_tick()
        assert len(fleet.live_queries) == live

        states = [shard.engine.state for shard in fleet.shards]
        samples = []
        apply = federation.sync

        def counted_sync():
            # Every key a shard's operator set gained or lost since the
            # federation last read its feed, the federation's own writes
            # included.
            unread = sum(
                len(state.changes_since(cursor))
                for state, cursor in zip(states, federation._cursors)
            )
            with profiled() as prof:
                result = apply()
            samples.append((unread, prof.ops.get("federation_keys_examined", 0), result))
            return result

        federation.sync = counted_sync
        promoted = 0  # by the sync before: queued for this one, in no feed
        for _ in range(10):
            churn_tick()
            unread, examined, result = samples[-1]
            exported = sum(map(len, reference_offers(federation).values()))
            assert 0 < examined <= shards * (unread + promoted)
            assert examined < 0.10 * exported * shards, (examined, exported)
            promoted = result["promoted"]

        while any(federation.sync().values()):
            pass  # what one sync promotes the next offers the other shards
        federation.sync()  # nothing changed since the last, not even by it
        assert samples[-1][1:] == (0, {"imported": 0, "withdrawn": 0, "promoted": 0})
