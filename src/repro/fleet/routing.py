"""Shard assignment policies and the query router.

The router owns the single fleet-wide invariant the tests pin down:
**every live or queued query is owned by exactly one shard**.  Which
shard a *new* query lands on is the pluggable part:

* :class:`HashShardPolicy` -- uniform baseline keyed on the canonical
  query fingerprint.  Because the fingerprint is name- and
  source-order-insensitive, resubmissions of the same query body always
  hash to the same shard and keep hitting that shard's plan cache.
* :class:`SubtreeLocalityPolicy` -- the paper-aware policy: queries
  whose source streams live under the same hierarchy subtree are
  colocated, so the derived views they could share are planned (and
  reused) inside one shard instead of crossing the federation.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence

from repro.core.cost import RateModel
from repro.durability.state import restore_section
from repro.errors import ReproError
from repro.hierarchy.hierarchy import Hierarchy
from repro.query.query import Query
from repro.service.fingerprint import query_fingerprint


class ShardPolicy(Protocol):
    """Strategy choosing a shard for a newly routed query."""

    name: str

    def assign(self, query: Query, num_shards: int, loads: Sequence[int]) -> int:
        """Pick a shard index in ``[0, num_shards)``.

        Args:
            query: The query being routed.
            num_shards: Fleet width.
            loads: Current owned-query count per shard (advisory; used
                by load-aware policies to break ties).
        """
        ...

    def capture(self) -> Any:
        """What the policy remembers between assignments, JSON-ready, for
        the router's snapshot section (``None``: nothing); a policy that
        answers adds ``restore(doc)``, the inverse."""
        ...


class HashShardPolicy:
    """Fingerprint-hash assignment: uniform and resubmission-sticky."""

    name = "hash"

    def assign(self, query: Query, num_shards: int, loads: Sequence[int]) -> int:
        return int(query_fingerprint(query), 16) % num_shards

    def capture(self) -> None:
        """A hash remembers nothing."""
        return None


class SubtreeLocalityPolicy:
    """Colocate queries whose sources share a hierarchy subtree.

    The locality key of a query is the *smallest cluster whose subtree
    covers every source node* -- the level at which the paper's
    hierarchical planner would finish planning it, and therefore the
    scope within which its derived views are advertised and reusable.
    Keys map to shards sticky-first-come: a new key takes the currently
    least-loaded shard and keeps it, so same-subtree queries colocate
    while distinct subtrees spread across the fleet.
    """

    name = "subtree"

    def __init__(self, hierarchy: Hierarchy, rates: RateModel) -> None:
        self.hierarchy = hierarchy
        self.rates = rates
        self._shard_of_key: dict[tuple[int, int], int] = {}

    def locality_key(self, query: Query) -> tuple[int, int]:
        """(level, coordinator) of the query's covering cluster."""
        nodes = {self.rates.source(s) for s in query.sources}
        cluster = self.hierarchy.leaf_cluster(min(nodes))
        while not nodes <= self.hierarchy.subtree(cluster):
            if cluster.parent is None:
                break
            cluster = cluster.parent
        return (cluster.level, cluster.coordinator)

    def assign(self, query: Query, num_shards: int, loads: Sequence[int]) -> int:
        key = self.locality_key(query)
        shard = self._shard_of_key.get(key)
        if shard is None or shard >= num_shards:
            shard = min(range(num_shards), key=lambda i: (loads[i], i))
            self._shard_of_key[key] = shard
        return shard

    def capture(self) -> list[list[int]]:
        """``[level, coordinator, shard]`` per locality key seen, sorted."""
        return [
            [level, coordinator, shard]
            for (level, coordinator), shard in sorted(self._shard_of_key.items())
        ]

    def restore(self, doc: list[list[int]]) -> None:
        """Inverse of :meth:`capture`."""
        self._shard_of_key = {
            (level, coordinator): shard for level, coordinator, shard in doc
        }


def make_policy(
    policy: str | ShardPolicy,
    hierarchy: Hierarchy | None = None,
    rates: RateModel | None = None,
) -> ShardPolicy:
    """Resolve a policy name (``"hash"`` / ``"subtree"``) or pass one through."""
    if not isinstance(policy, str):
        return policy
    key = policy.lower()
    if key == "hash":
        return HashShardPolicy()
    if key == "subtree":
        if hierarchy is None or rates is None:
            raise ReproError("the subtree policy needs a hierarchy and rate model")
        return SubtreeLocalityPolicy(hierarchy, rates)
    raise ReproError(f"unknown shard policy {policy!r}")


class QueryRouter:
    """Thin ownership map in front of the shards.

    The router decides (via its policy) where a new query goes, then
    records the binding so retirements, duplicate-name submissions and
    rebalances all resolve to the one owning shard.
    """

    def __init__(self, policy: ShardPolicy, num_shards: int) -> None:
        if num_shards < 1:
            raise ReproError("a fleet needs at least one shard")
        self.policy = policy
        self.num_shards = num_shards
        self._owner: dict[str, int] = {}
        self._loads = [0] * num_shards  # owned queries per shard
        self.routed_total = 0
        self.revision = 0  # moves with every change of what capture() writes

    # ------------------------------------------------------------------
    def route(self, query: Query) -> int:
        """Shard for a submission: the owner if bound, else the policy's pick."""
        existing = self._owner.get(query.name)
        if existing is not None:
            return existing
        self.routed_total += 1
        self.revision += 1  # and whatever the policy remembers of it
        shard = self.policy.assign(query, self.num_shards, self.loads())
        if not 0 <= shard < self.num_shards:
            raise ReproError(
                f"policy {self.policy.name!r} returned shard {shard} for a "
                f"{self.num_shards}-shard fleet"
            )
        return shard

    def bind(self, name: str, shard: int) -> None:
        """Record that ``name`` is owned by ``shard``."""
        current = self._owner.get(name)
        if current is not None and current != shard:
            raise ReproError(
                f"query {name!r} is already owned by shard {current}, "
                f"cannot bind to {shard}"
            )
        if current is None:
            self._loads[shard] += 1
            self._owner[name] = shard
            self.revision += 1

    def release(self, name: str) -> int | None:
        """Drop a query's binding (retirement); return its old shard."""
        shard = self._owner.pop(name, None)
        if shard is not None:
            self._loads[shard] -= 1
            self.revision += 1
        return shard

    def rebind(self, name: str, shard: int) -> None:
        """Move an existing binding to another shard (rebalance)."""
        if name not in self._owner:
            raise ReproError(f"query {name!r} is not bound to any shard")
        self._loads[shard] += 1
        self._loads[self._owner[name]] -= 1
        self._owner[name] = shard
        self.revision += 1

    # ------------------------------------------------------------------
    def owner(self, name: str) -> int | None:
        """Owning shard of a query, or ``None``."""
        return self._owner.get(name)

    def owners(self) -> dict[str, int]:
        """The full query -> shard ownership map."""
        return dict(self._owner)

    def loads(self) -> list[int]:
        """Owned-query count per shard (a copy of the router's counts)."""
        return list(self._loads)

    # ------------------------------------------------------------------
    def capture(self) -> dict[str, Any]:
        """The router's section of a ``repro.state`` snapshot: the
        ownership map and what its policy remembers."""
        return {
            "owner": dict(self._owner),
            "routed_total": self.routed_total,
            "policy_keys": self.policy.capture(),
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into a pristine router."""
        for name, shard in doc["owner"].items():
            self.bind(name, shard)
        self.routed_total = doc["routed_total"]
        restore_section("router.policy_keys", self.policy, doc["policy_keys"])
