"""Mutable undirected weighted network graph.

The :class:`Network` is the substrate every other subsystem builds on.  A
node is an integer id ``0..n-1``; a link carries a *traversal cost* (the
cost of shipping one unit of data across the link -- the paper's "link
cost (per byte transferred)") and a *delay* in seconds (used by the
discrete-event runtime).

The expensive derived artifacts (all-pairs shortest-path cost and delay
matrices) are computed lazily and cached; any mutation bumps an internal
version counter which invalidates the caches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Link:
    """An undirected physical link between nodes ``u`` and ``v``.

    Attributes:
        u: One endpoint (always the smaller node id after normalization).
        v: The other endpoint.
        cost: Traversal cost per unit of data shipped across the link.
        delay: One-way propagation delay in seconds.
        bandwidth: Link bandwidth in data units per second, as a network
            document gives it (``inf``, uncapacitated, unless it names
            one); no planner or simulator reads it.
        kind: Free-form tag, e.g. ``"stub"``, ``"transit"``,
            ``"stub-transit"`` -- useful for assertions about generated
            topologies.
    """

    u: int
    v: int
    cost: float
    delay: float = 0.001
    bandwidth: float = float("inf")
    kind: str = ""

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop link at node {self.u}")
        if self.cost < 0:
            raise ValueError(f"negative link cost {self.cost}")
        if self.delay < 0:
            raise ValueError(f"negative link delay {self.delay}")
        if self.u > self.v:
            # Normalize endpoint order so (u, v) is a canonical key.
            lo, hi = self.v, self.u
            object.__setattr__(self, "u", lo)
            object.__setattr__(self, "v", hi)


def _canonical(u: int, v: int) -> tuple[int, int]:
    """Return the canonical (sorted) endpoint pair for an undirected link."""
    return (u, v) if u <= v else (v, u)


class Network:
    """An undirected weighted graph of physical processing nodes.

    Construction is most convenient through the topology generators in
    :mod:`repro.network.topology`, but a network can also be assembled
    manually::

        net = Network()
        a, b = net.add_node(), net.add_node()
        net.add_link(a, b, cost=2.0, delay=0.01)

    Nodes carry an optional ``kind`` tag (``"transit"`` / ``"stub"`` / "")
    used by topology assertions and by the In-network baseline's zoning.
    """

    def __init__(self) -> None:
        self._links: dict[tuple[int, int], Link] = {}
        self._adj: dict[int, set[int]] = {}
        self._node_kind: dict[int, str] = {}
        self._version = 0
        # (version, distances, predecessors, disconnected): one Dijkstra
        # pass fills both matrices.
        self._cost_cache: tuple[int, np.ndarray, np.ndarray, bool] | None = None
        self._delay_cache: tuple[int, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes currently in the network."""
        return len(self._adj)

    @property
    def num_links(self) -> int:
        """Number of undirected links currently in the network."""
        return len(self._links)

    @property
    def version(self) -> int:
        """Monotone counter bumped on every mutation (cache invalidation)."""
        return self._version

    def nodes(self) -> list[int]:
        """All node ids, sorted ascending."""
        return sorted(self._adj)

    def links(self) -> list[Link]:
        """All links, in canonical endpoint order."""
        return [self._links[key] for key in sorted(self._links)]

    def node_kind(self, node: int) -> str:
        """The ``kind`` tag of ``node`` (empty string if untagged)."""
        self._check_node(node)
        return self._node_kind[node]

    def nodes_of_kind(self, kind: str) -> list[int]:
        """All node ids whose ``kind`` tag equals ``kind``."""
        return sorted(n for n, k in self._node_kind.items() if k == kind)

    def neighbors(self, node: int) -> list[int]:
        """Sorted neighbor ids of ``node``."""
        self._check_node(node)
        return sorted(self._adj[node])

    def has_node(self, node: int) -> bool:
        """Whether ``node`` exists."""
        return node in self._adj

    def has_link(self, u: int, v: int) -> bool:
        """Whether an undirected link between ``u`` and ``v`` exists."""
        return _canonical(u, v) in self._links

    def link(self, u: int, v: int) -> Link:
        """The :class:`Link` between ``u`` and ``v`` (raises if absent)."""
        try:
            return self._links[_canonical(u, v)]
        except KeyError:
            raise KeyError(f"no link between {u} and {v}") from None

    def is_connected(self) -> bool:
        """Whether the network is a single connected component."""
        if self.num_nodes == 0:
            return True
        nodes = self.nodes()
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            cur = stack.pop()
            for nxt in self._adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == self.num_nodes

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, kind: str = "") -> int:
        """Add a fresh node and return its id (max existing id + 1)."""
        node = max(self._adj, default=-1) + 1
        self._adj[node] = set()
        self._node_kind[node] = kind
        self._version += 1
        return node

    def add_nodes(self, count: int, kind: str = "") -> list[int]:
        """Add ``count`` fresh nodes; return their ids."""
        return [self.add_node(kind) for _ in range(count)]

    def add_link(
        self,
        u: int,
        v: int,
        cost: float,
        delay: float = 0.001,
        kind: str = "",
    ) -> Link:
        """Add an undirected, uncapacitated link; raises if one already
        exists.  A bounded bandwidth comes only from a document
        (:meth:`restore`)."""
        self._check_node(u)
        self._check_node(v)
        key = _canonical(u, v)
        if key in self._links:
            raise ValueError(f"link between {u} and {v} already exists")
        link = Link(key[0], key[1], cost=cost, delay=delay, kind=kind)
        self._links[key] = link
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._version += 1
        return link

    def set_link_cost(self, u: int, v: int, cost: float) -> None:
        """Update the traversal cost of an existing link.

        This is how changing network conditions are modelled
        (congestion raises per-unit costs): the version bump moves a
        service's topology epoch, and its adaptivity loop re-plans.
        """
        key = _canonical(u, v)
        if key not in self._links:
            raise KeyError(f"no link between {u} and {v}")
        if cost < 0:
            raise ValueError(f"negative link cost {cost}")
        self._links[key] = replace(self._links[key], cost=cost)
        self._version += 1

    # ------------------------------------------------------------------
    # Derived matrices (cached)
    # ------------------------------------------------------------------
    def cost_matrix(self) -> np.ndarray:
        """All-pairs shortest-path *traversal cost* matrix.

        ``cost_matrix()[u, v]`` is the cheapest per-unit cost of moving
        data from node ``u`` to node ``v`` along network links (the
        paper's ``c_act``).  Rows/columns are indexed by node id; ids are
        ``0..n-1`` in the order :meth:`add_node` handed them out.
        """
        _, matrix, _, disconnected = self._cost_paths()
        if disconnected:
            raise ValueError("network is disconnected; shortest paths undefined")
        return matrix

    def delay_matrix(self) -> np.ndarray:
        """All-pairs shortest-path one-way *delay* matrix (seconds)."""
        if self._delay_cache is not None and self._delay_cache[0] == self._version:
            return self._delay_cache[1]
        matrix = self._shortest_paths("delay")
        if np.isinf(matrix).any():
            raise ValueError("network is disconnected; shortest paths undefined")
        self._delay_cache = (self._version, matrix)
        return matrix

    def path_delay(self, u: int, v: int) -> float:
        """Shortest-path one-way delay between two nodes (seconds)."""
        return float(self.delay_matrix()[u, v])

    def predecessors(self) -> np.ndarray:
        """Predecessor matrix of the cost-weighted shortest paths.

        ``predecessors()[i, j]`` is the node preceding ``j`` on the
        cheapest path from ``i`` to ``j`` (``-9999`` when ``i == j`` per
        scipy convention; also between disconnected nodes).  Used for path
        reconstruction by the runtime.
        """
        return self._cost_paths()[2]

    def copy(self) -> "Network":
        """Deep copy of the network (caches are not copied)."""
        clone = Network()
        clone._adj = {n: set(nbrs) for n, nbrs in self._adj.items()}
        clone._node_kind = dict(self._node_kind)
        clone._links = dict(self._links)
        return clone

    # ------------------------------------------------------------------
    # Document (a manifest's and a snapshot's network section)
    # ------------------------------------------------------------------
    def capture(self) -> dict:
        """``nodes`` (ids, kinds) and ``links`` (all attributes, an
        unbounded bandwidth as ``None``) in id and endpoint order, and
        the ``version``.  The shortest-path caches are derived: not kept.
        """
        return {
            "nodes": [{"id": node, "kind": self._node_kind[node]} for node in self.nodes()],
            "links": [
                {
                    "u": link.u,
                    "v": link.v,
                    "cost": link.cost,
                    "delay": link.delay,
                    "bandwidth": link.bandwidth if link.bandwidth != float("inf") else None,
                    "kind": link.kind,
                }
                for link in self.links()
            ],
            "version": self._version,
        }

    def restore(self, doc: dict) -> None:
        """Assign a :meth:`capture` document *in place* (planners, engines
        and routing policies hold references to the network) and clear
        the caches.  Every field is required; only a ``None`` bandwidth is
        unbounded.  Nothing is assigned unless the whole document reads.
        """
        adj: dict[int, set[int]] = {node["id"]: set() for node in doc["nodes"]}
        if sorted(adj) != list(range(len(doc["nodes"]))):
            raise ValueError("network node ids must be contiguous from 0")
        kinds = {node["id"]: node["kind"] for node in doc["nodes"]}
        links = {}
        for entry in doc["links"]:
            bandwidth = entry["bandwidth"]
            link = Link(
                u=entry["u"],
                v=entry["v"],
                cost=entry["cost"],
                delay=entry["delay"],
                bandwidth=float("inf") if bandwidth is None else bandwidth,
                kind=entry["kind"],
            )
            if (link.u, link.v) in links:
                raise ValueError(f"link between {link.u} and {link.v} already exists")
            links[(link.u, link.v)] = link
            adj[link.u].add(link.v)
            adj[link.v].add(link.u)
        self._adj, self._node_kind, self._links = adj, kinds, links
        self._version = doc["version"]
        self._cost_cache = self._delay_cache = None

    def to_networkx(self):
        """Export as a :class:`networkx.Graph` (cost/delay as edge attrs)."""
        import networkx as nx

        g = nx.Graph()
        for n in self.nodes():
            g.add_node(n, kind=self._node_kind[n])
        for link in self.links():
            g.add_edge(link.u, link.v, cost=link.cost, delay=link.delay, kind=link.kind)
        return g

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if node not in self._adj:
            raise KeyError(f"node {node} not in network")

    def _edge_arrays(self, weight: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, cols, data = [], [], []
        for (u, v), link in self._links.items():
            rows.append(u)
            cols.append(v)
            data.append(getattr(link, weight))
        return (
            np.asarray(data, dtype=np.float64),
            np.asarray(rows, dtype=np.intp),
            np.asarray(cols, dtype=np.intp),
        )

    def _cost_paths(self) -> tuple[int, np.ndarray, np.ndarray, bool]:
        """The cost cache for the current version, filled by one pass."""
        cache = self._cost_cache
        if cache is None or cache[0] != self._version:
            matrix, preds = self._shortest_paths("cost", predecessors=True)
            cache = (self._version, matrix, preds, bool(np.isinf(matrix).any()))
            self._cost_cache = cache
        return cache

    def _shortest_paths(self, weight: str, predecessors: bool = False):
        """All-pairs distances under ``weight`` (and, with
        ``predecessors``, the predecessor matrix beside them)."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        n = self.num_nodes
        if n == 0:
            raise ValueError("network has no nodes")
        data, rows, cols = self._edge_arrays(weight)
        graph = csr_matrix((data, (rows, cols)), shape=(n, n))
        return shortest_path(
            graph, method="D", directed=False, return_predecessors=predecessors
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network(nodes={self.num_nodes}, links={self.num_links})"
