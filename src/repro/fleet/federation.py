"""Cross-shard reuse: federating derived-view advertisements.

Each shard plans against its own :class:`AdvertisementIndex`, so out of
the box a view deployed by shard A is invisible to shard B and the
paper's operator reuse stops at the shard boundary.  The federation
closes that gap: after every fleet tick it republishes each shard's
*locally owned* view advertisements into every other shard's index and
registers a matching external operator record in that shard's
deployment state, so the hierarchical planners fold the remote view into
their plans and :meth:`DeploymentState.apply` accepts the resulting
reused leaf.

The fleet-wide index is kept per key, not rebuilt per sync: each shard's
operator-set feed says which keys entered or left its export set, a
``key -> shards offering it`` map follows, and a sync decides only on
the keys whose offer set changed since the last one.

Invalidation is epoch-consistent: when the owning shard retires a view,
the next sync withdraws the import everywhere -- withdrawing the
advertisement, dropping the external record, and surgically evicting
exactly the cached plans that referenced it
(:meth:`PlanCache.evict_referencing`).  If the *importing* shard has
live queries consuming the view, the record is instead *promoted*: the
federation's claim is dropped but the record stays (the single-service
"alive through reuse" semantics), and the promoting shard becomes the
view's exporter from then on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.durability.state import FragmentMemo, view_key_from_doc, view_key_to_doc
from repro.obs.tracer import count

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


class ReuseFederation:
    """Fleet-wide derived-view index synchronized into every shard.

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
        whose signature carries fewer filters.  Where several imports
        share the source set and the node (they differ in filters), the
        answer is the one with the smallest ``(label, filters)`` key,
        filters compared as their sorted ``(stream, predicate,
        selectivity)`` triples (:func:`import_rank`).
        """
        keys = self._imports_at[shard].get((sources, node))
        if not keys:
            return None
        return min(keys, key=import_rank)

    @property
    def active_imports(self) -> int:
        """Imports currently live across the fleet."""
        return sum(len(s) for s in self._imports)

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
        every shard's feed is read from the start, and every import is
        up for review whether or not anyone still offers it.
        """
        self._imports = [set() for _ in imports]
        self._imports_at = [{} for _ in imports]
        for shard, keys in enumerate(imports):
            for key in keys:
                self._add_import(shard, key)
        self._cursors = [None] * len(self.shards)
        self._dirty.update(*self._imports)

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
    def _plan(self) -> list[tuple[list[ViewKey], list[tuple[ViewKey, int]]]]:
        """What a sync would do now: per shard, the imports to drop and
        the ``(key, owner shard)`` pairs to import, in application order.

        Only the keys whose offers changed since the last sync are
        looked at.  A shard's import set is exactly the offered keys it
        does not offer itself, so an import goes when nobody offers its
        key any more and one is added where a shard neither offers nor
        imports an offered key.
        """
        shards = range(len(self.shards))
        for sid in shards:
            self._read_exports(sid)
        imports = self._imports
        drops: list[list[ViewKey]] = [[] for _ in shards]
        adds: list[list[tuple[ViewKey, int]]] = [[] for _ in shards]
        for key in self._dirty:
            offered = self._offers.get(key)
            if offered is None:
                for sid in shards:
                    if key in imports[sid]:
                        drops[sid].append(key)
            else:
                owner = min(offered)
                for sid in shards:
                    if sid not in offered and key not in imports[sid]:
                        adds[sid].append((key, owner))
        count("federation_keys_examined", len(self._dirty) * len(shards))

        def add_order(pair: tuple[ViewKey, int]) -> tuple:
            (sig, node), owner = pair
            serial = self.shards[owner].engine.state.operator_serial(sig, node)
            return (sig.label(), node, owner, serial)

        for sid in shards:
            drops[sid].sort(key=import_rank)
            adds[sid].sort(key=add_order)
        return list(zip(drops, adds))

    def sync(self) -> dict[str, int]:
        """One reconciliation round; returns what changed.

        Reads every shard's feed into the offer map, decides on the keys
        whose offers changed (:meth:`_plan`) and applies that per shard:
        removals, then additions read from the key's owner, the lowest
        shard offering it.  Removals either withdraw (no local
        consumers) or promote (local queries still reuse the view); a
        promoted view is offered to the other shards by the *next* sync.
        The federation epoch advances whenever a withdrawal invalidated
        state, mirroring the service's epoch discipline.
        """
        plan = self._plan()
        self._dirty.clear()
        imported = withdrawn = promoted = 0
        for sid, (drops, adds) in enumerate(plan):
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
                    # not report, and exported next sync.
                    self._offer(sid, key)
                    promoted += 1
            for key, owner_sid in adds:
                sig, node = key
                owner = self.shards[owner_sid].engine.state
                state.register_external_view(
                    sig, node, owner.view_rate(sig, node), FEDERATION_OWNER
                )
                if service.ads is not None:
                    service.ads.advertise_view(sig, node)
                self._add_import(sid, key)
                imported += 1

        self.syncs += 1
        self.imported_total += imported
        self.withdrawn_total += withdrawn
        self.promoted_total += promoted
        if withdrawn or promoted:
            self.epoch += 1
        return {"imported": imported, "withdrawn": withdrawn, "promoted": promoted}

    # ------------------------------------------------------------------
    # Snapshot section
    # ------------------------------------------------------------------
    def capture(self, memo: FragmentMemo | None = None) -> dict[str, Any]:
        """The federation's section of a ``repro.state`` snapshot.

        An import is a (signature, node) tuple the federation keeps for
        as long as the import stands: given the snapshot's ``memo`` its
        text goes by identity, so a snapshot encodes only new imports.
        """

        def listed(keys: set[ViewKey]):
            # The sources first, as written since the section exists
            # ("|" and the rank's "*" sort stream names that prefix one
            # another differently); the rank settles what that leaves tied.
            ordered = sorted(
                keys,
                key=lambda key: ("|".join(sorted(key[0].sources)), import_rank(key)),
            )
            if memo is None:
                return [view_key_to_doc(key) for key in ordered]
            return memo.array(ordered, view_key_to_doc)

        return {
            "epoch": self.epoch,
            "syncs": self.syncs,
            "imported_total": self.imported_total,
            "withdrawn_total": self.withdrawn_total,
            "promoted_total": self.promoted_total,
            "imports": [listed(keys) for keys in self._imports],
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into a pristine federation; the
        next sync is a full reconcile (:meth:`restore_imports`)."""
        self.epoch = doc["epoch"]
        self.syncs = doc["syncs"]
        self.imported_total = doc["imported_total"]
        self.withdrawn_total = doc["withdrawn_total"]
        self.promoted_total = doc["promoted_total"]
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
