"""The virtual clustering hierarchy (paper Section 2.1.1).

Level 1 partitions the physical nodes into clusters of at most
``max_cs`` members; each cluster elects its medoid as *coordinator*, and
the coordinators are clustered again at level 2, and so on until a
single top-level cluster remains.  Members of every cluster are physical
node ids (at level > 1 they are coordinators promoted from below), so
"estimated cost at level l" is simply the actual traversal cost between
level-l representatives -- with error bounded by Theorem 1's
``sum 2 d_i`` slack, which :meth:`Hierarchy.estimate_slack` exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.errors import HierarchyError, NodeNotFoundError
from repro.hierarchy.clustering import capped_clusters, choose_medoid
from repro.network.graph import Network
from repro.utils import SeedLike, as_generator


@dataclass
class Cluster:
    """One cluster at one level of the hierarchy.

    Attributes:
        level: 1-based level (1 = physical nodes).
        members: Physical node ids in this cluster.  At level 1 these
            are ordinary nodes; above, each member is the coordinator of
            one child cluster.
        coordinator: The member elected to represent this cluster one
            level up.
        children: ``member -> child cluster`` (empty at level 1).
        parent: The enclosing cluster at the next level up (``None`` for
            the root).
    """

    level: int
    members: list[int]
    coordinator: int
    children: dict[int, "Cluster"] = field(default_factory=dict)
    parent: Optional["Cluster"] = None

    def __post_init__(self) -> None:
        if self.coordinator not in self.members:
            raise HierarchyError("coordinator must be a cluster member")
        if self.level > 1 and set(self.children) != set(self.members):
            raise HierarchyError(
                "each member of a non-leaf cluster must own a child cluster"
            )

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.members)

    def subtree_nodes(self) -> set[int]:
        """All physical nodes beneath this cluster (inclusive)."""
        if self.level == 1:
            return set(self.members)
        out: set[int] = set()
        for child in self.children.values():
            out |= child.subtree_nodes()
        return out

    def descend(self) -> Iterator["Cluster"]:
        """This cluster and every cluster below it (pre-order)."""
        yield self
        for child in self.children.values():
            yield from child.descend()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(level={self.level}, coord={self.coordinator}, members={self.members})"


class Hierarchy:
    """A built hierarchy over a network (use :func:`build_hierarchy`).

    Attributes:
        network: The underlying physical network.
        max_cs: The cluster-size cap the hierarchy was built with.
        levels: ``levels[0]`` is the list of level-1 clusters, ...,
            ``levels[-1]`` is ``[root]``.
    """

    def __init__(self, network: Network, max_cs: int, levels: list[list[Cluster]]) -> None:
        self.network = network
        self.max_cs = max_cs
        self.levels = levels
        self._leaf_of: dict[int, Cluster] = {}
        self._member_cluster: list[dict[int, Cluster]] = []
        # id(cluster) -> its subtree, (id(cluster), member) -> the member's.
        self._subtree_cache: dict[int | tuple[int, int], frozenset[int]] = {}
        #: Bumped by every :meth:`reindex`, i.e. after every tree edit.
        self.revision = 0
        self.reindex()

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of levels ``h`` (level 1 .. level h)."""
        return len(self.levels)

    @property
    def root(self) -> Cluster:
        """The single top-level cluster."""
        return self.levels[-1][0]

    def clusters_at(self, level: int) -> list[Cluster]:
        """All clusters at 1-based ``level``."""
        if not 1 <= level <= self.height:
            raise HierarchyError(f"level must be in [1, {self.height}], got {level}")
        return list(self.levels[level - 1])

    def leaf_cluster(self, node: int) -> Cluster:
        """The level-1 cluster containing a physical node.

        Raises:
            NodeNotFoundError: The node is not in the hierarchy (also
                catchable as ``KeyError``).
        """
        try:
            return self._leaf_of[node]
        except KeyError:
            raise NodeNotFoundError(f"node {node} is not in the hierarchy") from None

    def cluster_of(self, node: int, level: int) -> Cluster:
        """The level-``level`` cluster whose subtree contains ``node``."""
        cluster = self.leaf_cluster(node)
        while cluster.level < level:
            if cluster.parent is None:
                raise HierarchyError(
                    f"level {level} exceeds hierarchy height {self.height}"
                )
            cluster = cluster.parent
        return cluster

    def representative(self, node: int, level: int) -> int:
        """``node``'s representative among level-``level`` members.

        Level 1: the node itself.  Level l: the coordinator of the
        level-(l-1) cluster on the node's coordinator chain.
        """
        if level == 1:
            self.leaf_cluster(node)  # existence check
            return node
        return self.cluster_of(node, level - 1).coordinator

    def subtree(self, cluster: Cluster) -> frozenset[int]:
        """All physical nodes beneath ``cluster`` (inclusive), remembered.

        :meth:`Cluster.subtree_nodes` walks the tree on every call; this
        is that walk done once per cluster.  The answer (like
        :meth:`member_subtree`'s) stands until :meth:`reindex`, which
        everything that edits the cluster tree (:mod:`.maintenance`,
        snapshot restore) calls when it is done: a tree edited by hand
        without a ``reindex()`` is not supported and reads stale here.
        """
        key = id(cluster)
        cached = self._subtree_cache.get(key)
        if cached is None:
            cached = self._subtree_cache[key] = frozenset(cluster.subtree_nodes())
        return cached

    def member_subtree(self, cluster: Cluster, member: int) -> frozenset[int]:
        """Physical nodes represented by ``member`` within ``cluster``.

        At level 1 a member represents only itself; above, it represents
        every node beneath its child cluster.  Remembered until
        :meth:`reindex`, on the same terms as :meth:`subtree`.
        """
        key = (id(cluster), member)
        cached = self._subtree_cache.get(key)
        if cached is not None:
            return cached
        if member not in cluster.members:
            raise NodeNotFoundError(f"{member} is not a member of {cluster!r}")
        if cluster.level == 1:
            result = frozenset((member,))
        else:
            result = self.subtree(cluster.children[member])
        self._subtree_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Cost estimates (Theorem 1)
    # ------------------------------------------------------------------
    def intra_cluster_cost(self, level: int) -> float:
        """``d_level``: max pairwise member traversal cost at a level."""
        costs = self.network.cost_matrix()
        worst = 0.0
        for cluster in self.clusters_at(level):
            idx = np.asarray(cluster.members, dtype=np.intp)
            if idx.size > 1:
                worst = max(worst, float(costs[np.ix_(idx, idx)].max()))
        return worst

    def intra_cluster_costs(self) -> list[float]:
        """``[d_1, ..., d_h]`` for every level."""
        return [self.intra_cluster_cost(level) for level in range(1, self.height + 1)]

    def estimated_cost(self, u: int, v: int, level: int) -> float:
        """Level-``level`` estimate of the traversal cost between nodes."""
        costs = self.network.cost_matrix()
        return float(costs[self.representative(u, level), self.representative(v, level)])

    def estimate_slack(self, level: int) -> float:
        """Theorem 1's bound: actual <= estimate + ``sum_{i<level} 2 d_i``."""
        from repro.core.bounds import hierarchy_estimate_slack

        return hierarchy_estimate_slack(self.intra_cluster_costs(), level)

    # ------------------------------------------------------------------
    # Invariants / bookkeeping
    # ------------------------------------------------------------------
    def reindex(self) -> None:
        """Rebuild lookup maps after structural changes (a new revision)."""
        self.revision += 1
        self._leaf_of = {}
        self._member_cluster = []
        self._subtree_cache = {}
        for level_clusters in self.levels:
            index: dict[int, Cluster] = {}
            for cluster in level_clusters:
                for member in cluster.members:
                    index[member] = cluster
            self._member_cluster.append(index)
        for cluster in self.levels[0]:
            for member in cluster.members:
                self._leaf_of[member] = cluster

    def invariant_violations(self, full_coverage: bool = False) -> list[str]:
        """Every broken structural invariant, as human-readable strings.

        The checked invariants:

        * level-1 clusters partition a subset of the network's nodes
          (all of them when ``full_coverage`` is set -- true right after
          :func:`build_hierarchy`, but nodes may leave the hierarchy
          while remaining physically present);
        * every cluster respects ``max_cs`` and contains its coordinator;
        * each level's members are exactly the coordinators of the level
          below;
        * the top level is a single cluster;
        * parent/child links are mutually consistent.

        Unlike :meth:`validate` this works under ``python -O`` (no
        ``assert``) and reports *all* violations instead of the first --
        what the chaos harness and the churn property test need.
        """
        problems: list[str] = []
        if not self.levels or not self.levels[0]:
            return ["hierarchy has no levels/clusters"]
        nodes = set(self.network.nodes())
        seen: set[int] = set()
        for cluster in self.levels[0]:
            if cluster.level != 1:
                problems.append("bottom level must be level 1")
            overlap = seen & set(cluster.members)
            if overlap:
                problems.append(f"nodes {sorted(overlap)} appear in two leaf clusters")
            seen |= set(cluster.members)
        if not seen <= nodes:
            problems.append(f"hierarchy contains unknown nodes {sorted(seen - nodes)}")
        if full_coverage and seen != nodes:
            problems.append(
                f"leaf clusters cover {len(seen)} of {len(nodes)} nodes"
            )
        if len(self.levels[-1]) != 1:
            problems.append("top level must be a single cluster")
        for depth, level_clusters in enumerate(self.levels):
            level = depth + 1
            for cluster in level_clusters:
                if cluster.level != level:
                    problems.append(
                        f"cluster {cluster!r} stored at level {level}"
                    )
                if not 1 <= cluster.size <= self.max_cs:
                    problems.append(
                        f"cluster size {cluster.size} violates max_cs={self.max_cs}"
                    )
                if cluster.coordinator not in cluster.members:
                    problems.append(
                        f"coordinator {cluster.coordinator} is not a member of {cluster!r}"
                    )
                if level > 1:
                    for member, child in cluster.children.items():
                        if child.coordinator != member:
                            problems.append(
                                f"member {member} must be its child's coordinator"
                            )
                        if child.parent is not cluster:
                            problems.append(f"child parent link broken at {cluster!r}")
                if level < self.height:
                    if cluster.parent is None:
                        problems.append(f"non-root cluster {cluster!r} has no parent")
                    elif cluster.coordinator not in cluster.parent.members:
                        problems.append(
                            f"coordinator {cluster.coordinator} missing from parent members"
                        )
            if level > 1:
                below = {c.coordinator for c in self.levels[depth - 1]}
                here = {m for c in level_clusters for m in c.members}
                if here != below:
                    problems.append(
                        f"level {level} members {sorted(here)} != coordinators "
                        f"below {sorted(below)}"
                    )
        if self.levels[-1][0].parent is not None:
            problems.append("root must not have a parent")
        return problems

    def validate(self, full_coverage: bool = False) -> None:
        """Check every structural invariant; raise AssertionError if broken.

        See :meth:`invariant_violations` for the invariant list (and for
        an ``-O``-safe, collect-everything variant).
        """
        problems = self.invariant_violations(full_coverage)
        assert not problems, "; ".join(problems)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = " -> ".join(str(len(level)) for level in self.levels)
        return f"Hierarchy(max_cs={self.max_cs}, clusters per level: {shape})"


def build_hierarchy(
    network: Network,
    max_cs: int,
    seed: SeedLike = None,
    method: str = "kmeans",
) -> Hierarchy:
    """Build the virtual clustering hierarchy over ``network``.

    Args:
        network: Physical network (must be connected).
        max_cs: Maximum nodes per cluster (the paper's tuning knob).
        seed: RNG seed/generator for the clustering.
        method: Clustering method (``"kmeans"``, ``"kmedoids"``,
            ``"random"``) -- see :func:`repro.hierarchy.clustering.capped_clusters`.

    Returns:
        A validated :class:`Hierarchy`.
    """
    if max_cs < 2:
        raise HierarchyError(
            "max_cs must be at least 2 for the hierarchy to shrink upward"
        )
    rng = as_generator(seed)
    costs = network.cost_matrix()
    levels: list[list[Cluster]] = []
    current = network.nodes()
    prev_clusters: dict[int, Cluster] = {}
    level = 1
    while True:
        groups = capped_clusters(current, costs, max_cs, seed=rng, method=method)
        if len(groups) >= len(current) and len(current) > 1:
            # Degenerate clustering (all singletons) would stall the
            # upward recursion; fall back to deterministic chunking.
            ordered = sorted(current)
            groups = [ordered[i : i + max_cs] for i in range(0, len(ordered), max_cs)]
        clusters: list[Cluster] = []
        for members in groups:
            coordinator = choose_medoid(members, costs)
            children = {m: prev_clusters[m] for m in members} if level > 1 else {}
            cluster = Cluster(
                level=level,
                members=list(members),
                coordinator=coordinator,
                children=children,
            )
            for child in children.values():
                child.parent = cluster
            clusters.append(cluster)
        levels.append(clusters)
        if len(clusters) == 1:
            break
        prev_clusters = {c.coordinator: c for c in clusters}
        if len(prev_clusters) != len(clusters):  # pragma: no cover - defensive
            raise RuntimeError("duplicate coordinators across clusters")
        current = sorted(prev_clusters)
        level += 1
    hierarchy = Hierarchy(network=network, max_cs=max_cs, levels=levels)
    hierarchy.validate(full_coverage=True)
    return hierarchy
