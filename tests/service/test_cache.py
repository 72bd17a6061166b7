"""Plan cache: LRU bounds, hit accounting, epoch eviction, the reuse index."""

import random

from repro.query.plan import Join, Leaf
from repro.service.cache import CachedPlan, PlanCache


def entry(node_id=0):
    a, b = Leaf.of("A"), Leaf.of("B")
    plan = Join(a, b)
    return CachedPlan(plan=plan, placement={a: 0, b: 1, plan: node_id})


class TestLookups:
    def test_miss_then_hit(self):
        cache = PlanCache()
        key = cache.key("fp", 0, 0)
        assert cache.get(key) is None
        cache.put(key, entry())
        assert cache.get(key) is not None
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_epoch_is_part_of_the_key(self):
        cache = PlanCache()
        cache.put(cache.key("fp", 0, 0), entry())
        assert cache.get(cache.key("fp", 1, 0)) is None
        assert cache.get(cache.key("fp", 0, 1)) is None
        assert cache.get(cache.key("fp", 0, 0)) is not None

    def test_hit_rate_zero_before_lookups(self):
        assert PlanCache().hit_rate == 0.0


class TestEviction:
    def test_lru_capacity(self):
        cache = PlanCache(capacity=2)
        k1, k2, k3 = (cache.key(f"fp{i}", 0, 0) for i in range(3))
        cache.put(k1, entry())
        cache.put(k2, entry())
        cache.get(k1)  # refresh k1; k2 becomes LRU
        cache.put(k3, entry())
        assert k1 in cache
        assert k2 not in cache
        assert k3 in cache
        assert cache.evictions == 1

    def test_unbounded(self):
        cache = PlanCache(capacity=None)
        for i in range(1000):
            cache.put(cache.key(f"fp{i}", 0, 0), entry())
        assert len(cache) == 1000
        assert cache.evictions == 0

    def test_evict_stale_epochs(self):
        cache = PlanCache()
        cache.put(cache.key("fp1", 0, 0), entry())
        cache.put(cache.key("fp2", 0, 0), entry())
        cache.put(cache.key("fp3", 1, 0), entry())
        removed = cache.evict_stale(1, 0)
        assert removed == 2
        assert len(cache) == 1
        assert cache.invalidations == 2

    def test_demote_rebooks_hit_as_miss(self):
        cache = PlanCache()
        key = cache.key("fp", 0, 0)
        cache.put(key, entry())
        assert cache.get(key) is not None
        cache.demote(key)
        assert cache.hits == 0
        assert cache.misses == 1
        assert key not in cache

    def test_clear(self):
        cache = PlanCache()
        cache.put(cache.key("fp", 0, 0), entry())
        cache.clear()
        assert len(cache) == 0


# ----------------------------------------------------------------------
# evict_referencing answers from an index every writer maintains
# ----------------------------------------------------------------------
VIEWS = [frozenset("AB"), frozenset("CD"), frozenset("FGH")]  # disjoint


def reusing(*refs):
    """A plan reusing each ``(view, node)`` of ``refs`` beside base stream E."""
    plan = Leaf.of("E")
    placement = {plan: 9}
    for view, node in refs:
        leaf = Leaf(view)
        plan = Join(plan, leaf)
        placement.update({leaf: node, plan: 9})
    return CachedPlan(plan=plan, placement=placement)


def literal_referencing(cache, view, node):
    """The scan ``evict_referencing`` used to be: every entry's leaves."""
    return [
        key
        for key, cached in cache._entries.items()
        if any(
            not leaf.is_base_stream
            and leaf.view == view
            and cached.placement.get(leaf) == node
            for leaf in cached.plan.leaves()
        )
    ]


class TestReferencingIndex:
    def test_every_writer_keeps_the_index_equal_to_the_literal_scan(self):
        rng = random.Random(7)
        cache = PlanCache(capacity=12)
        keys = [cache.key(f"fp{i}", epoch, 0) for i in range(20) for epoch in (0, 1)]
        refs = [(view, node) for view in VIEWS for node in (0, 1)]
        done = set()
        for _ in range(600):
            op = rng.choice(
                ["put"] * 6 + ["get", "demote", "evict_stale", "evict", "clear", "restore"]
            )
            if op == "put":
                views = rng.sample(VIEWS, rng.randint(0, 3))
                cache.put(rng.choice(keys), reusing(*((v, rng.randint(0, 1)) for v in views)))
            elif op == "get":
                cache.get(rng.choice(keys))
            elif op == "demote":
                cache.demote(rng.choice(keys))
            elif op == "evict_stale":
                cache.evict_stale(rng.randint(0, 1), 0)
            elif op == "evict":
                ref = rng.choice(refs)
                want = literal_referencing(cache, *ref)
                if not want:
                    continue
                before = cache.invalidations
                assert cache.evict_referencing(*ref) == len(want)
                assert cache.invalidations == before + len(want)
                assert not any(key in cache for key in want)
            elif op == "clear":
                cache.clear()
            else:
                kept = list(cache._entries.items())[::2]
                cache.restore(kept)
                assert list(cache._entries.items()) == kept
            done.add(op)
            for ref in refs:
                assert sorted(cache._referencing.get(ref, ())) == sorted(
                    literal_referencing(cache, *ref)
                )
            assert all(cache._referencing.values()), "an emptied bucket was kept"
        assert len(done) == 7

    def test_only_the_plans_reusing_the_view_at_that_node_die(self):
        cache = PlanCache()
        ab0, ab1, cd0 = (cache.key(name, 0, 0) for name in ("ab0", "ab1", "cd0"))
        cache.put(ab0, reusing((VIEWS[0], 0)))
        cache.put(ab1, reusing((VIEWS[0], 1)))
        cache.put(cd0, reusing((VIEWS[1], 0), (VIEWS[2], 0)))
        cache.put(cache.key("plain", 0, 0), entry())
        assert cache.evict_referencing(VIEWS[0], 0) == 1
        assert ab0 not in cache and ab1 in cache and cd0 in cache
        assert cache.evict_referencing(VIEWS[2], 0) == 1
        assert cache.evict_referencing(VIEWS[1], 0) == 0  # went with the other view
        assert len(cache) == 2
