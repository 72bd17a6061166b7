"""Cross-shard reuse: federating derived-view advertisements.

Each shard plans against its own :class:`AdvertisementIndex`, so out of
the box a view deployed by shard A is invisible to shard B and the
paper's operator reuse stops at the shard boundary.  The federation
closes that gap: after every fleet tick it *publishes* each shard's
locally owned views, and a shard about to plan a query imports every
published view over the query's streams (as coordinators read ads for
the query they plan) -- advertising it in its index and registering a
matching external operator record in its deployment state, so the
hierarchical planners fold the remote view into their plans and
:meth:`DeploymentState.apply` accepts the reused leaf.

The published index is kept per key, not rebuilt per sync: each shard's
operator-set feed says which keys entered or left its export set, a
``key -> shards offering it`` map follows, and a sync decides only on
the keys whose offer set changed since the last one.

Invalidation is epoch-consistent: when the owning shard retires a view,
the next sync unpublishes it and withdraws every import of it --
withdrawing the advertisement, dropping the external record, and
surgically evicting exactly the cached plans that referenced it
(:meth:`PlanCache.evict_referencing`).  If the *importing* shard has
live queries consuming the view, the record is instead *promoted*: the
federation's claim is dropped but the record stays (the single-service
"alive through reuse" semantics), and the next sync publishes it.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from repro.durability.state import FragmentMemo, view_key_from_doc, view_key_to_doc
from repro.obs.tracer import count
from repro.query.query import Query

if TYPE_CHECKING:
    from repro.service.service import StreamQueryService

#: Sentinel consumer name keeping imported operator records alive in the
#: importing shard's state.  Never collides with a query: service-side
#: validation has no path to a query of this name being deployed.
FEDERATION_OWNER = "__fleet_federation__"

ViewKey = tuple  # (ViewSignature, node)


def import_rank(key: ViewKey) -> tuple:
    """The one total order on imports: ``(label, node)``, then what else
    tells two signatures apart.  Withdrawals are applied in it, a
    ``(sources, node)`` lookup answers its minimum and the snapshot
    lists imports by it, so none of them depends on set iteration order.
    """
    signature, node = key
    return (
        signature.label(),
        node,
        sorted((f.stream, f.predicate, f.selectivity) for f in signature.filters),
        sorted(
            (p.left, p.right, p.selectivity, p.left_attr, p.right_attr)
            for p in signature.predicates
        ),
        signature.window,
    )


class Published(NamedTuple):
    """A published view as the sync that last changed its offers saw it."""

    key: ViewKey
    offered: frozenset[int]
    order: tuple  # imports go in (label, node, owner, owner's serial) order
    rate: float  # the owner's


class ReuseFederation:
    """Fleet-wide derived-view index, imported into a shard on demand.

    Args:
        shards: The fleet's services, indexed by shard id.
    """

    def __init__(self, shards: Sequence["StreamQueryService"]) -> None:
        self.shards = list(shards)
        self._imports: list[set[ViewKey]] = [set() for _ in self.shards]
        # The same imports per shard, by (sources, node): what a reused
        # leaf knows about the view it bound to.
        self._imports_at: list[dict[tuple[frozenset[str], int], list[ViewKey]]] = [
            {} for _ in self.shards
        ]
        # Per shard: the locally owned keys it offers the fleet, kept up
        # to date from its state's operator-set feed, and where that
        # feed was last read.
        self._exports: list[set[ViewKey]] = [set() for _ in self.shards]
        self._cursors: list[tuple[object, int] | None] = [None] * len(self.shards)
        # The same exports by key: the shards offering it (never empty;
        # the lowest is the owner imports are read from), and the keys
        # whose entry changed since the last sync decided on them.
        self._offers: dict[ViewKey, set[int]] = {}
        self._dirty: set[ViewKey] = set()
        # What the last sync decided: the offered keys by source set, a
        # set as a bit mask (a plan probes every subset of its query's).
        self._published: dict[int, dict[ViewKey, Published]] = {}
        self._bits: dict[str, int] = {}
        self.epoch = 0
        self.syncs = 0
        self.imported_total = 0
        self.withdrawn_total = 0
        self.promoted_total = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def import_for(
        self, shard: int, sources: frozenset[str], node: int
    ) -> ViewKey | None:
        """The import on ``shard`` covering ``sources`` at ``node``.

        Matched by source set (not full signature): a reused leaf's view
        is a source set, and containment reuse may bind it to an import
        whose signature carries fewer filters.  Of several imports that
        differ in filters only, the least under :func:`import_rank`.
        """
        keys = self._imports_at[shard].get((sources, node))
        return min(keys, key=import_rank) if keys else None

    @property
    def active_imports(self) -> int:
        """Imports currently live across the fleet."""
        return sum(len(s) for s in self._imports)

    def published(self) -> dict[ViewKey, Published]:
        """Every published view, as the last sync decided on it."""
        return {k: e for entries in self._published.values() for k, e in entries.items()}

    def exports(self, shard: int) -> dict[ViewKey, float]:
        """Locally owned views a shard offers the fleet, with rates.

        Everything the shard's deployment state advertises *minus* what
        the federation itself planted there -- re-exporting an import
        would let a view outlive its owner through a cycle of shards.
        """
        state = self.shards[shard].engine.state
        return {key: state.view_rate(*key) for key in self._read_exports(shard)}

    def restore_imports(self, imports: Sequence[set[ViewKey]]) -> None:
        """Replace every shard's import set (crash recovery).

        The next sync is a full reconcile: exports depend on imports, so
        every shard's feed is read from the start, and every import and
        published view is up for review whether anyone still offers it.
        """
        self._imports = [set() for _ in imports]
        self._imports_at = [{} for _ in imports]
        for shard, keys in enumerate(imports):
            for key in keys:
                self._add_import(shard, key)
        self._cursors = [None] * len(self.shards)
        self._dirty.update(*self._imports, *self._published.values())

    def _add_import(self, shard: int, key: ViewKey) -> None:
        self._imports[shard].add(key)
        self._imports_at[shard].setdefault((key[0].sources, key[1]), []).append(key)

    def _drop_import(self, shard: int, key: ViewKey) -> None:
        self._imports[shard].discard(key)
        at = (key[0].sources, key[1])
        keys = self._imports_at[shard][at]
        keys.remove(key)
        if not keys:
            del self._imports_at[shard][at]

    def _offer(self, shard: int, key: ViewKey) -> None:
        self._exports[shard].add(key)
        self._offers.setdefault(key, set()).add(shard)
        self._dirty.add(key)

    def _retract(self, shard: int, key: ViewKey) -> None:
        self._exports[shard].discard(key)
        offered = self._offers[key]
        offered.discard(shard)
        if not offered:
            del self._offers[key]
        self._dirty.add(key)

    def _publish(self, key: ViewKey, offered, rate: float | None = None) -> None:
        """Enter ``key`` in the published index, read from its owner."""
        (sig, node), owner = key, min(offered)
        state = self.shards[owner].engine.state
        order = (sig.label(), node, owner, state.operator_serial(sig, node))
        rate = state.view_rate(sig, node) if rate is None else rate
        entries = self._published.setdefault(self._mask(sig.sources), {})
        entries[key] = Published(key, frozenset(offered), order, rate)

    def _mask(self, sources) -> int:
        return sum(self._bits.setdefault(s, 1 << len(self._bits)) for s in sources)

    def _read_exports(self, shard: int) -> set[ViewKey]:
        """A shard's export set, brought up to date with its state."""
        state = self.shards[shard].engine.state
        exports, imports = self._exports[shard], self._imports[shard]
        changed = state.changes_since(self._cursors[shard])
        if changed is None:
            # The feed cannot say what changed: look at every operator
            # and every key offered so far, and let the next sync decide
            # on all of them.
            changed = [*exports, *state.operators()]
            self._dirty.update(changed)
        self._cursors[shard] = state.feed_cursor()
        for key in changed:
            offered = key not in imports and state.has_view(*key)
            if offered and key not in exports:
                self._offer(shard, key)
            elif not offered and key in exports:
                self._retract(shard, key)
        count("federation_keys_examined", len(changed))
        return exports

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def _plan(self) -> tuple[list[list[ViewKey]], int]:
        """Publish the keys whose offers changed since the last sync (a
        key whose offering shards did not change keeps its entry) and
        unpublish those nobody offers.  Returns, per shard, the imports
        of unpublished keys to drop, in application order, and how many
        keys were (re)published."""
        shards = range(len(self.shards))
        for sid in shards:
            self._read_exports(sid)
        imports, published = self._imports, self._published
        drops: list[list[ViewKey]] = [[] for _ in shards]
        republished = withdrawn = 0
        for key in self._dirty:
            offered = self._offers.get(key)
            entries = published.get(self._mask(key[0].sources), {})
            entry = entries.get(key)
            if offered is None:
                withdrawn += 1
                entries.pop(key, None)  # an emptied source set stays, unread
                for sid in shards:
                    if key in imports[sid]:
                        drops[sid].append(key)
            elif entry is None or entry.offered != offered:
                self._publish(key, offered)
                republished += 1
        count("federation_keys_examined", len(self._dirty) + withdrawn * len(shards))
        for sid in shards:
            drops[sid].sort(key=import_rank)
        return drops, republished

    def sync(self) -> dict[str, int]:
        """One reconciliation round; returns what changed.

        Reads every shard's feed into the offer map, decides on the keys
        whose offers changed (:meth:`_plan`) and applies the removals
        per shard.  A removal either withdraws (no local consumers) or
        promotes (local queries still reuse the view); a promoted view
        is published by the *next* sync.  The federation epoch advances
        whenever a withdrawal invalidated state, mirroring the service's
        epoch discipline.
        """
        plan, published = self._plan()
        self._dirty.clear()
        withdrawn = promoted = 0
        for sid, drops in enumerate(plan):
            service = self.shards[sid]
            state = service.engine.state
            for key in drops:
                sig, node = key
                removed = state.unregister_external_view(sig, node, FEDERATION_OWNER)
                self._drop_import(sid, key)
                if removed:
                    ads = service.ads
                    if ads is not None and node in ads.view_nodes(sig):
                        ads.withdraw_view(sig, node)
                    service.cache.evict_referencing(sig.sources, node)
                    withdrawn += 1
                else:
                    # Local queries still consume the view: the record is
                    # promoted to local ownership, which the feed does
                    # not report, and published next sync.
                    self._offer(sid, key)
                    promoted += 1

        self.syncs += 1
        self.withdrawn_total += withdrawn
        self.promoted_total += promoted
        if withdrawn or promoted:
            self.epoch += 1
        return {"published": published, "withdrawn": withdrawn, "promoted": promoted}

    def import_views(self, shard: int, query: Query) -> None:
        """Import into ``shard`` every published view over a subset of
        ``query``'s streams that it neither offers nor imports, in
        :class:`Published` order.  Planning, the plan cache's
        revalidation and :meth:`DeploymentState.apply` read no other
        view, so a plan is the one importing everything would give."""
        published, imports, bits = self._published, self._imports[shard], self._bits
        subset = mask = sum(bits.get(stream, 0) for stream in query.sources)
        wanted = []
        while subset:  # every subset of the mask, once
            entries = published.get(subset)
            if entries:
                for key, entry in entries.items():
                    if key not in imports and shard not in entry.offered:
                        wanted.append(entry)
            subset = (subset - 1) & mask
        if wanted:
            self._import(shard, wanted)

    def _import(self, shard: int, entries: list[Published]) -> None:
        service = self.shards[shard]
        state, ads = service.engine.state, service.ads
        for (sig, node), _, _, rate in sorted(entries, key=attrgetter("order")):
            state.register_external_view(sig, node, rate, FEDERATION_OWNER)
            if ads is not None:
                ads.advertise_view(sig, node)
            self._add_import(shard, (sig, node))
        self.imported_total += len(entries)

    # ------------------------------------------------------------------
    # Snapshot section
    # ------------------------------------------------------------------
    def capture(self, memo: FragmentMemo | None = None) -> dict[str, Any]:
        """The federation's section of a ``repro.state`` snapshot.

        An import is a (signature, node) tuple the federation keeps for
        as long as the import stands, a published entry one it keeps
        until its offers change: given the snapshot's ``memo`` their
        text goes by identity, so a snapshot encodes only new ones.
        """

        def listed(items, to_doc, key=lambda item: item):
            # The sources first, as written since the section exists
            # ("|" and the rank's "*" sort stream names that prefix one
            # another differently); the rank settles what that leaves tied.
            ordered = sorted(
                items,
                key=lambda item: ("|".join(sorted(key(item)[0].sources)), import_rank(key(item))),
            )
            if memo is None:
                return [to_doc(item) for item in ordered]
            return memo.array(ordered, to_doc)

        return {
            "epoch": self.epoch,
            "syncs": self.syncs,
            "imported_total": self.imported_total,
            "withdrawn_total": self.withdrawn_total,
            "promoted_total": self.promoted_total,
            "imports": [listed(keys, view_key_to_doc) for keys in self._imports],
            # No serials: a restore reads them again from the owners.
            "published": listed(
                self.published().values(),
                lambda e: {"view": view_key_to_doc(e.key), "offered": sorted(e.offered), "rate": e.rate},
                attrgetter("key"),
            ),
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into a pristine federation; the
        next sync is a full reconcile (:meth:`restore_imports`)."""
        self.epoch = doc["epoch"]
        self.syncs = doc["syncs"]
        self.imported_total = doc["imported_total"]
        self.withdrawn_total = doc["withdrawn_total"]
        self.promoted_total = doc["promoted_total"]
        for entry in doc.get("published", []):  # absent from older files
            self._publish(view_key_from_doc(entry["view"]), entry["offered"], entry["rate"])
        self.restore_imports(
            [{view_key_from_doc(e) for e in imports} for imports in doc["imports"]]
        )

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, int]:
        """Counters for reports and the CLI."""
        return {
            "epoch": self.epoch,
            "syncs": self.syncs,
            "imported_total": self.imported_total,
            "withdrawn_total": self.withdrawn_total,
            "promoted_total": self.promoted_total,
            "active_imports": self.active_imports,
        }
