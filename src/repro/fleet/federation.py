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

from typing import TYPE_CHECKING, Sequence

from repro.query.query import ViewSignature

if TYPE_CHECKING:
    from repro.service.service import StreamQueryService

#: Sentinel consumer name keeping imported operator records alive in the
#: importing shard's state.  Never collides with a query: service-side
#: validation has no path to a query of this name being deployed.
FEDERATION_OWNER = "__fleet_federation__"

ViewKey = tuple  # (ViewSignature, node)


def _import_rank(key: ViewKey) -> tuple:
    """Orders the imports one ``(sources, node)`` lookup can match."""
    signature = key[0]
    return (
        signature.label(),
        sorted((f.stream, f.predicate, f.selectivity) for f in signature.filters),
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
        self.epoch = 0
        self.syncs = 0
        self.imported_total = 0
        self.withdrawn_total = 0
        self.promoted_total = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_import(self, shard: int, signature: ViewSignature, node: int) -> bool:
        """Whether ``(signature, node)`` is an import on ``shard``."""
        return (signature, node) in self._imports[shard]

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
        selectivity)`` triples.
        """
        keys = self._imports_at[shard].get((sources, node))
        if not keys:
            return None
        return min(keys, key=_import_rank)

    def imports(self, shard: int) -> set[ViewKey]:
        """The (signature, node) keys currently imported by a shard."""
        return set(self._imports[shard])

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
        """Replace every shard's import set (crash recovery)."""
        self._imports = [set() for _ in imports]
        self._imports_at = [{} for _ in imports]
        for shard, keys in enumerate(imports):
            for key in keys:
                self._add_import(shard, key)
        self._cursors = [None] * len(self.shards)  # exports depend on imports

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

    def _read_exports(self, shard: int) -> set[ViewKey]:
        """A shard's export set, brought up to date with its state."""
        state = self.shards[shard].engine.state
        exports, imports = self._exports[shard], self._imports[shard]
        changed = state.changes_since(self._cursors[shard])
        if changed is None:  # first read of this state: every operator
            exports.clear()
            changed = state.operators()
        self._cursors[shard] = state.feed_cursor()
        for key in changed:
            if key not in imports and state.has_view(*key):
                exports.add(key)
            else:
                exports.discard(key)
        return exports

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def sync(self) -> dict[str, int]:
        """One reconciliation round; returns what changed.

        Three phases: collect every shard's exports into the fleet
        index (key -> the lowest shard offering it), then per shard
        compute the desired import set (everything some *other* shard
        exports that this shard does not already own locally) and apply
        removals and additions.  Removals either withdraw (no local
        consumers) or promote (local queries still reuse the view).  The
        federation epoch advances whenever a withdrawal invalidated
        state, mirroring the service's epoch discipline.
        """
        fleet: dict[ViewKey, int] = {}
        for sid in range(len(self.shards)):
            for key in self._read_exports(sid):
                fleet.setdefault(key, sid)

        def import_order(key: ViewKey) -> tuple:
            owner = self.shards[fleet[key]].engine.state
            return (key[0].label(), key[1], fleet[key], owner.operator_serial(*key))

        imported = withdrawn = promoted = 0
        for sid, service in enumerate(self.shards):
            state = service.engine.state
            current = self._imports[sid]
            desired = {
                key
                for key, owner in fleet.items()
                # skip views this shard owns locally (its own operators);
                # existing imports are desired as long as an owner remains
                if owner != sid and (key in current or not state.has_view(*key))
            }
            for key in sorted(current - desired, key=lambda k: (k[0].label(), k[1])):
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
                    # promoted to local ownership and exported next sync.
                    self._exports[sid].add(key)
                    promoted += 1
            for key in sorted(desired - current, key=import_order):
                sig, node = key
                owner = self.shards[fleet[key]].engine.state
                state.register_external_view(
                    sig,
                    node,
                    owner.view_rate(sig, node),
                    FEDERATION_OWNER,
                    origin=owner.view_origin(sig, node),
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
