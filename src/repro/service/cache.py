"""Memoized plan cache with epoch-based invalidation.

Entries are keyed on ``(fingerprint, statistics_epoch, topology_epoch)``:
a cached plan is only ever served while *both* epochs still match, so
bumping an epoch implicitly invalidates every older entry.  The cache
stores the plan tree and placement (not the full
:class:`~repro.query.deployment.Deployment`) so a hit can be re-bound to
a submission with a different query name; plan trees compare
structurally, making the stored placement dict reusable as-is.

Eviction is LRU under a capacity bound plus explicit sweeps of
stale-epoch entries (they can never hit again, only waste memory).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.tracer import count
from repro.query.plan import PlanNode

CacheKey = tuple  # (fingerprint, statistics_epoch, topology_epoch)


@dataclass(frozen=True)
class CachedPlan:
    """One memoized optimizer result.

    Attributes:
        plan: The chosen join tree.
        placement: Node assignment for every subtree root.
        stats: The optimizer's free-form stats from the original run.
    """

    plan: PlanNode
    placement: dict[PlanNode, int]
    stats: dict = field(default_factory=dict)

    def reused_views(self) -> set[tuple[frozenset[str], int | None]]:
        """``(view, node)`` of every derived view the plan reuses."""
        return {
            (leaf.view, self.placement.get(leaf))
            for leaf in self.plan.leaves()
            if not leaf.is_base_stream
        }


class PlanCache:
    """LRU plan cache keyed on (fingerprint, stats epoch, topology epoch).

    Args:
        capacity: Maximum entries kept (LRU-evicted beyond it); ``None``
            means unbounded.
    """

    def __init__(self, capacity: int | None = 256) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, CachedPlan]" = OrderedDict()
        # (view, node) -> keys of the entries reusing it; every path that
        # adds or removes an entry goes through _store / _remove.
        self._referencing: dict[tuple, list[CacheKey]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: Bumped by every change to the entries or their LRU order.
        self.revision = 0

    # ------------------------------------------------------------------
    def key(self, fingerprint: str, statistics_epoch: int, topology_epoch: int) -> CacheKey:
        """Build the composite cache key."""
        return (fingerprint, statistics_epoch, topology_epoch)

    def get(self, key: CacheKey) -> CachedPlan | None:
        """Look up a plan; counts a hit or miss and refreshes LRU order."""
        count("cache_probes")
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.revision += 1
        self.hits += 1
        return entry

    def put(self, key: CacheKey, entry: CachedPlan) -> None:
        """Insert (or refresh) a plan, evicting LRU entries over capacity."""
        self._remove(key)
        self._store(key, entry)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._remove(next(iter(self._entries)))
                self.evictions += 1

    def demote(self, key: CacheKey) -> None:
        """Drop one entry (e.g. it failed revalidation against live state).

        The earlier :meth:`get` already counted a hit; the caller should
        treat the lookup as a miss, so the hit is re-booked accordingly.
        """
        if self._remove(key):
            self.invalidations += 1
        self.hits -= 1
        self.misses += 1

    def evict_stale(self, statistics_epoch: int, topology_epoch: int) -> int:
        """Remove every entry not at the current epochs; return the count."""
        stale = [
            key
            for key in self._entries
            if key[1] != statistics_epoch or key[2] != topology_epoch
        ]
        for key in stale:
            self._remove(key)
        self.invalidations += len(stale)
        return len(stale)

    def evict_referencing(self, view: frozenset[str], node: int) -> int:
        """Remove entries whose plan reuses ``view`` at ``node``.

        Targeted invalidation for federated reuse: when a remote view a
        cached plan depends on is withdrawn, only the plans that actually
        reference it die -- resubmissions of unrelated queries keep their
        hits.  Returns the eviction count.
        """
        stale = list(self._referencing.get((view, node), ()))
        for key in stale:
            self._remove(key)
        self.invalidations += len(stale)
        return len(stale)

    def entries(self) -> Iterable[tuple[CacheKey, CachedPlan]]:
        """Every ``(key, entry)`` pair, least recently used first: what
        :meth:`restore` takes back."""
        return self._entries.items()

    def restore(self, entries: Iterable[tuple[CacheKey, CachedPlan]]) -> None:
        """Replace the contents with captured ``(key, entry)`` pairs,
        least recently used first (crash recovery; counters untouched)."""
        self.revision += 1
        self._entries.clear()
        self._referencing.clear()
        for key, entry in entries:
            self._store(key, entry)

    def _store(self, key: CacheKey, entry: CachedPlan) -> None:
        self.revision += 1
        self._entries[key] = entry
        for ref in entry.reused_views():
            self._referencing.setdefault(ref, []).append(key)

    def _remove(self, key: CacheKey) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.revision += 1
        for ref in entry.reused_views():
            keys = self._referencing[ref]
            keys.remove(key)
            if not keys:
                del self._referencing[ref]
        return True

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Hits / lookups so far (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries
