"""Stream advertisements (paper Section 2.1.2).

Nodes advertise the base streams they host and, once operators are
deployed, the *derived* streams those operators produce.  Advertisements
are aggregated by coordinators and propagated up the hierarchy, so the
coordinator of every cluster knows every stream available somewhere in
its subtree -- this is what lets both algorithms fold operator reuse
into planning, and it costs one message per level per advertisement
(the index keeps a counter so experiments can report the overhead,
which the paper observes is negligible next to the data streams).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from repro.hierarchy.hierarchy import Cluster, Hierarchy
from repro.obs.tracer import count, incr, span
from repro.query.query import Query, ViewSignature

#: One ``plan()`` call's question to the index, asked per cluster:
#: see :meth:`AdvertisementIndex.reusable_views`.
ViewLookup = Callable[[Cluster], dict[ViewSignature, set[int]]]


class AdvertisementIndex:
    """Cluster-aggregated base- and derived-stream advertisements.

    Args:
        hierarchy: The hierarchy advertisements propagate through.

    Under an installed tracer (:func:`repro.obs.tracer.tracing`),
    advertisement publishes/withdrawals are counted on the current span
    and every :meth:`sync_from_state` reconciliation gets its own
    ``ads_sync`` span.
    """

    def __init__(self, hierarchy: Hierarchy) -> None:
        self.hierarchy = hierarchy
        self._base_nodes: dict[str, int] = {}
        self._view_nodes: dict[ViewSignature, set[int]] = {}
        # How many advertised signatures join each set of streams.
        self._joining: dict[frozenset[str], int] = {}
        self.messages_sent = 0
        # Where the last sync stopped reading its state's operator-set
        # feed, and the keys advertised or withdrawn since.
        self._cursor: tuple[object, int] | None = None
        self._touched: set[tuple[ViewSignature, int]] = set()

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def advertise_base(self, stream: str, node: int) -> None:
        """Advertise a base stream hosted at ``node``."""
        if stream in self._base_nodes and self._base_nodes[stream] != node:
            raise ValueError(
                f"base stream {stream!r} already advertised at node "
                f"{self._base_nodes[stream]}"
            )
        self.hierarchy.leaf_cluster(node)  # node must exist in the hierarchy
        self._base_nodes[stream] = node
        self.messages_sent += self.hierarchy.height

    def advertise_view(self, signature: ViewSignature, node: int) -> None:
        """Advertise a derived stream produced by an operator at ``node``.

        Idempotent per (signature, node) -- the paper's advertisements
        are one-time messages at operator instantiation.
        """
        self.hierarchy.leaf_cluster(node)
        nodes = self._view_nodes.get(signature)
        if nodes is None:
            nodes = self._view_nodes[signature] = set()
            sources = signature.sources
            self._joining[sources] = self._joining.get(sources, 0) + 1
        if node not in nodes:
            nodes.add(node)
            self._touched.add((signature, node))
            self.messages_sent += self.hierarchy.height
            incr("ads_views_published")
            incr("ads_messages", self.hierarchy.height)

    def withdraw_view(self, signature: ViewSignature, node: int) -> None:
        """Remove a derived-stream advertisement (operator undeployed)."""
        nodes = self._view_nodes.get(signature)
        if not nodes or node not in nodes:
            raise KeyError(f"view {signature.label()} is not advertised at node {node}")
        nodes.discard(node)
        if not nodes:
            del self._view_nodes[signature]
            sources = signature.sources
            if self._joining[sources] == 1:
                del self._joining[sources]
            else:
                self._joining[sources] -= 1
        self._touched.add((signature, node))
        self.messages_sent += self.hierarchy.height
        incr("ads_views_withdrawn")
        incr("ads_messages", self.hierarchy.height)

    def sync_from_state(self, state) -> None:
        """Reconcile derived-stream ads with a :class:`DeploymentState`.

        Publishes every live view and withdraws ads whose operators no
        longer exist (undeployed queries), so planners never chase stale
        advertisements.  Syncing again from the same state looks only at
        the keys its operator-set feed reports changed, plus the keys
        advertised or withdrawn here directly since; either way the
        index ends up exactly as if every live view had been visited.
        """
        with span("ads_sync"):
            changed = state.changes_since(self._cursor)
            if changed is None:  # first sync from this state: visit it all
                live = state.advertised_views()
                publish = [(sig, node) for sig, nodes in live.items() for node in nodes]
                stale = [
                    (sig, node)
                    for sig, nodes in self._view_nodes.items()
                    for node in nodes
                    if node not in live.get(sig, ())
                ]
                examined = len(publish) + sum(map(len, self._view_nodes.values()))
            else:
                keys = self._touched.union(changed)
                publish = {key for key in keys if state.has_view(*key)}
                stale = [
                    (sig, node)
                    for sig, node in keys - publish
                    if node in self._view_nodes.get(sig, ())
                ]
                examined = len(keys)
            for key in publish:
                self.advertise_view(*key)
            for key in stale:
                self.withdraw_view(*key)
            self._cursor = state.feed_cursor()
            self._touched.clear()
            count("ads_keys_examined", examined)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def base_node(self, stream: str) -> int:
        """The node hosting a base stream."""
        try:
            return self._base_nodes[stream]
        except KeyError:
            raise KeyError(f"base stream {stream!r} is not advertised") from None

    def base_streams(self) -> dict[str, int]:
        """All advertised base streams (name -> node)."""
        return dict(self._base_nodes)

    def view_nodes(self, signature: ViewSignature) -> set[int]:
        """All nodes advertising a derived view (empty set if none)."""
        return set(self._view_nodes.get(signature, ()))

    def views(self) -> dict[ViewSignature, set[int]]:
        """All advertised derived views (signature -> nodes)."""
        return {sig: set(nodes) for sig, nodes in self._view_nodes.items()}

    # ------------------------------------------------------------------
    # Cluster-scoped aggregation (what a coordinator knows)
    # ------------------------------------------------------------------
    def streams_in(self, cluster: Cluster) -> set[str]:
        """Base streams available somewhere in ``cluster``'s subtree."""
        subtree = self.hierarchy.subtree(cluster)
        return {s for s, n in self._base_nodes.items() if n in subtree}

    def base_member(self, cluster: Cluster, stream: str) -> int | None:
        """The member of ``cluster`` whose subtree hosts ``stream``.

        Returns ``None`` when the stream is not under this cluster.
        """
        node = self._base_nodes.get(stream)
        if node is None:
            return None
        for member in cluster.members:
            if node in self.hierarchy.member_subtree(cluster, member):
                return member
        return None

    def reusable_views(self, query: Query) -> ViewLookup:
        """What the coordinators planning ``query`` ask the index.

        Returns a lookup for one ``plan()`` call: given a cluster, the
        advertised views that are sub-views of ``query`` (two or more of
        its streams, with exactly its predicates, filters and window on
        them) and have an advertising node in the cluster's subtree,
        mapped to those *physical nodes* (planning at a level resolves
        them to members via :meth:`view_members`).

        The lookup asks by signature: it walks the query's own stream
        subsets, ``2^n - n - 1`` of them and listed once for all the
        plan's tasks, builds a signature only for a subset some
        advertised view joins, and never visits the rest of the index.
        The views come back in subset order; the planners order their
        reuse groupings themselves (:func:`repro.core.reuse.input_partitions`),
        so no advertisement history decides a tie.
        """
        sources = query.sources
        subsets = [
            frozenset(subset)
            for size in range(2, len(sources) + 1)
            for subset in combinations(sources, size)
        ]

        def lookup(cluster: Cluster) -> dict[ViewSignature, set[int]]:
            subtree = self.hierarchy.subtree(cluster)
            probed = 0
            found = {}
            for subset in subsets:
                if subset not in self._joining:
                    continue
                signature = query.view_signature(subset)
                probed += 1
                nodes = self._view_nodes.get(signature)
                if nodes is not None:
                    inside = nodes & subtree
                    if inside:
                        found[signature] = inside
            count("ads_views_probed", probed)
            return found

        return lookup

    def view_members(self, cluster: Cluster, signature: ViewSignature) -> set[int]:
        """Members of ``cluster`` whose subtrees advertise ``signature``."""
        nodes = self._view_nodes.get(signature, ())
        out: set[int] = set()
        for member in cluster.members:
            subtree = self.hierarchy.member_subtree(cluster, member)
            if any(n in subtree for n in nodes):
                out.add(member)
        return out
