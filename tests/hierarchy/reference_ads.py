"""The literal reconcile the advertisement index is checked against.

:func:`reference_sync` is ``AdvertisementIndex.sync_from_state`` as it
was before the index learned to read the deployment state's operator-set
feed: it asks the state for every live view, advertises each, then walks
every advertised view and withdraws the dead ones.  It keeps no cursor
and reads no feed, so it is right by construction however the state
changed -- and O(live) per call, which is why the shipped method only
works this way the first time it meets a state.

Drive it on an index of its own (same hierarchy, its own tracer) beside
the index under test, mirroring every direct ``advertise_view`` /
``withdraw_view`` call on both.

:func:`reference_reusable` is what a planning task did before the index
could be asked by signature: ``AdvertisementIndex.views_in`` (every
advertised view intersected with a subtree walked afresh) followed by
the filter both planners' ``_candidate_leaf_sets`` applied to it.  It
reads the index under test, and ``AdvertisementIndex.reusable_views``
must return exactly its items.
"""

from __future__ import annotations


def reference_sync(ads, state) -> None:
    """Reconcile ``ads`` with ``state`` by visiting everything."""
    with ads.tracer.span("ads_sync"):
        live = state.advertised_views()
        for signature, nodes in live.items():
            for node in nodes:
                ads.advertise_view(signature, node)
        for signature, nodes in list(ads._view_nodes.items()):
            live_nodes = live.get(signature, set())
            for node in list(nodes):
                if node not in live_nodes:
                    ads.withdraw_view(signature, node)


def views_in(ads, cluster):
    """Derived views advertised within ``cluster``'s subtree, by scan."""
    subtree = cluster.subtree_nodes()
    out = {}
    for sig, nodes in ads._view_nodes.items():
        inside = nodes & subtree
        if inside:
            out[sig] = inside
    return out


def reference_reusable(ads, cluster, query):
    """The advertised sub-views of ``query`` under ``cluster``, by scan."""
    out = {}
    for sig, nodes in views_in(ads, cluster).items():
        if sig.sources <= frozenset(query.sources) and len(sig.sources) > 1:
            if sig == query.view_signature(sig.sources):
                out[sig] = nodes
    return out
