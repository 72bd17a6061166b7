"""The whole-index plan the per-key federation is checked against.

This is ``ReuseFederation.sync``'s decision as it was before the fleet
index was kept per key: every sync collects every shard's exports into
one ``key -> lowest offering shard`` map and recomputes every shard's
desired import set from all of it.  It keeps nothing between calls and
reads only the shard states and the import sets, so it is right by
construction whatever happened since the last sync -- and O(exports x
shards) per call, which is why the shipped sync decides on changed keys
only.
"""

from __future__ import annotations

from repro.durability.state import view_key_from_doc
from repro.fleet.federation import import_rank


def reference_offers(federation) -> dict[tuple, list[int]]:
    """``key -> shards offering it`` (ascending): every operator of a
    shard's state that the federation did not plant there."""
    offers: dict[tuple, list[int]] = {}
    for sid, service in enumerate(federation.shards):
        imports = imports_of(federation, sid)
        for key in service.engine.state.operators():
            if key not in imports:
                offers.setdefault(key, []).append(sid)
    return offers


def reference_plan(federation) -> list[tuple[list, list]]:
    """Per shard ``(drops, imports)`` a sync run now has to apply.

    ``drops`` are the imports to remove, ``imports`` the ``(key, owner
    shard)`` pairs to add, both in application order.
    """
    shards = federation.shards
    fleet = {key: offered[0] for key, offered in reference_offers(federation).items()}

    def import_order(key):
        owner = shards[fleet[key]].engine.state
        return (key[0].label(), key[1], fleet[key], owner.operator_serial(*key))

    plan = []
    for sid, service in enumerate(shards):
        state = service.engine.state
        current = imports_of(federation, sid)
        desired = {
            key
            for key, owner in fleet.items()
            # skip views this shard owns locally (its own operators);
            # existing imports are desired as long as an owner remains
            if owner != sid and (key in current or not state.has_view(*key))
        }
        plan.append(
            (
                sorted(current - desired, key=import_rank),
                [(key, fleet[key]) for key in sorted(desired - current, key=import_order)],
            )
        )
    return plan



def imports_of(federation, shard: int) -> set:
    """The ``(signature, node)`` keys ``shard`` currently imports, read
    from the federation's snapshot section."""
    return {view_key_from_doc(doc) for doc in federation.capture()["imports"][shard]}
