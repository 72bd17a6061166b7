"""Oracles the on-demand federation is checked against.

* :func:`reference_offers` is the whole-index scan the per-key offer map
  replaced: every shard's exports collected into ``key -> offering
  shards``.  It keeps nothing between calls and reads only the shard
  states and the import sets, so it is right by construction whatever
  happened since the last sync.
* :func:`eager_desired` is what a shard imported before imports went on
  demand: every published view it does not offer itself.
* :class:`EagerFederation` is that retired behaviour, whole: right after
  each sync it imports every published view into every shard that
  neither offers nor imports it.  A fleet built under
  :func:`eager_federation` plans every query exactly as the shipped
  fleet does (``test_federation_on_demand.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.durability.state import view_key_from_doc
from repro.fleet.federation import ReuseFederation


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


def eager_desired(federation, shard: int) -> set:
    """The keys an eager sync kept imported in ``shard``: every
    published view the shard does not offer."""
    return {
        key
        for key, entry in federation.published().items()
        if shard not in entry.offered
    }


def imports_of(federation, shard: int) -> set:
    """The ``(signature, node)`` keys ``shard`` currently imports, read
    from the federation's snapshot section."""
    return {view_key_from_doc(doc) for doc in federation.capture()["imports"][shard]}


class EagerFederation(ReuseFederation):
    """Every published view copied into every shard after each sync."""

    def sync(self) -> dict[str, int]:
        result = super().sync()
        published = self.published()
        for sid in range(len(self.shards)):
            missing = eager_desired(self, sid) - self._imports[sid]
            if missing:
                self._import(sid, [published[key] for key in missing])
        return result

    def import_views(self, shard: int, query) -> None:
        """Nothing: the last sync imported every published view."""


@contextmanager
def eager_federation():
    """Every fleet built inside imports eagerly."""
    with mock.patch("repro.fleet.controller.ReuseFederation", EagerFederation):
        yield
