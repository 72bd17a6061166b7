"""Topology generators.

The centerpiece is :func:`transit_stub`, a GT-ITM-style generator matching
the paper's evaluation setup: a small expensive *transit* (backbone)
domain with several cheap *stub* (intranet) domains hanging off each
transit node.  Link costs are drawn so that "transmission within an
intranet [is] far cheaper than long-haul links" and delays fall in the
1-60 ms band the Emulab prototype used.

:func:`random_geometric` is an auxiliary generator for ablations, and
:func:`motivating_network` reconstructs the Figure 3 example network of
the paper's OIS scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.graph import Network
from repro.utils import SeedLike, as_generator


@dataclass(frozen=True)
class TransitStubParams:
    """Knobs of the transit-stub generator.

    Attributes:
        transit_domains: Number of transit (backbone) domains.  The
            paper's networks use 1; GT-ITM itself supports several,
            interconnected by inter-domain links.
        transit_nodes: Number of backbone nodes per transit domain (the
            paper uses 4).
        stubs_per_transit: Stub domains attached to each transit node.
        stub_size: Nodes per stub domain (may be overridden per-domain by
            :func:`transit_stub_by_size` to hit an exact total).

    Link costs, delays and the redundancy probabilities are the module
    constants below.
    """

    transit_domains: int = 1
    transit_nodes: int = 4
    stubs_per_transit: int = 4
    stub_size: int = 8


#: (low, high) uniform ranges of link costs: intra-stub, backbone,
#: stub-to-transit and between transit domains.
STUB_COST = (1.0, 5.0)
TRANSIT_COST = (20.0, 50.0)
GATEWAY_COST = (10.0, 30.0)
INTER_DOMAIN_COST = (40.0, 80.0)
#: (low, high) uniform range of link delays in seconds (the paper's
#: 1-60 ms).
DELAY = (0.001, 0.060)
#: Probability of adding each candidate non-tree edge inside a stub
#: domain (redundancy, path diversity).
EXTRA_EDGE_PROB = 0.15
#: Probability of adding each candidate chord to the transit ring.
TRANSIT_CHORD_PROB = 0.3
#: :func:`random_geometric`'s link radius on the unit square and the
#: cost of a unit distance.
GEOMETRIC_RADIUS = 0.35
GEOMETRIC_COST_SCALE = 10.0


def _uniform(rng: np.random.Generator, lo_hi: tuple[float, float]) -> float:
    lo, hi = lo_hi
    if lo > hi:
        raise ValueError(f"invalid range {lo_hi}")
    return float(rng.uniform(lo, hi))


def _connect_random_tree(
    net: Network,
    nodes: list[int],
    rng: np.random.Generator,
    cost_range: tuple[float, float],
    delay_range: tuple[float, float],
    kind: str,
    extra_edge_prob: float,
) -> None:
    """Wire ``nodes`` into a random spanning tree plus optional chords."""
    for i in range(1, len(nodes)):
        parent = nodes[int(rng.integers(0, i))]
        net.add_link(
            nodes[i],
            parent,
            cost=_uniform(rng, cost_range),
            delay=_uniform(rng, delay_range),
            kind=kind,
        )
    if extra_edge_prob > 0:
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                u, v = nodes[i], nodes[j]
                if not net.has_link(u, v) and rng.random() < extra_edge_prob:
                    net.add_link(
                        u,
                        v,
                        cost=_uniform(rng, cost_range),
                        delay=_uniform(rng, delay_range),
                        kind=kind,
                    )


def transit_stub(
    params: TransitStubParams | None = None,
    seed: SeedLike = None,
    stub_sizes: list[int] | None = None,
) -> Network:
    """Generate a GT-ITM-style transit-stub network.

    Args:
        params: Generator knobs; defaults reproduce the paper's
            "1 transit domain of 4 nodes, 4 stub domains (each of 8
            nodes) connected to each transit node" topology.
        seed: RNG seed or generator for reproducibility.
        stub_sizes: Optional explicit per-domain sizes (length must be
            ``transit_nodes * stubs_per_transit``); overrides
            ``params.stub_size`` and is how :func:`transit_stub_by_size`
            hits exact node counts.

    Returns:
        A connected :class:`Network` whose nodes are tagged ``"transit"``
        or ``"stub"`` and whose links are tagged ``"transit"``,
        ``"stub"`` or ``"gateway"``.
    """
    params = params or TransitStubParams()
    rng = as_generator(seed)
    if params.transit_domains < 1:
        raise ValueError("need at least one transit domain")
    if params.transit_nodes < 1:
        raise ValueError("need at least one transit node")
    if params.stubs_per_transit < 1 or params.stub_size < 1:
        raise ValueError("need at least one stub domain of at least one node")
    n_domains = params.transit_domains * params.transit_nodes * params.stubs_per_transit
    if stub_sizes is None:
        stub_sizes = [params.stub_size] * n_domains
    if len(stub_sizes) != n_domains:
        raise ValueError(f"stub_sizes must have {n_domains} entries, got {len(stub_sizes)}")
    if any(s < 1 for s in stub_sizes):
        raise ValueError("every stub domain needs at least one node")

    net = Network()
    domain = 0
    domain_transit: list[list[int]] = []
    for _ in range(params.transit_domains):
        transit = net.add_nodes(params.transit_nodes, kind="transit")
        domain_transit.append(transit)

        # Backbone: ring + random chords (single link for 2 nodes,
        # nothing for 1).
        if len(transit) == 2:
            net.add_link(
                transit[0],
                transit[1],
                cost=_uniform(rng, TRANSIT_COST),
                delay=_uniform(rng, DELAY),
                kind="transit",
            )
        elif len(transit) > 2:
            for i, node in enumerate(transit):
                nxt = transit[(i + 1) % len(transit)]
                if not net.has_link(node, nxt):
                    net.add_link(
                        node,
                        nxt,
                        cost=_uniform(rng, TRANSIT_COST),
                        delay=_uniform(rng, DELAY),
                        kind="transit",
                    )
            for i in range(len(transit)):
                for j in range(i + 2, len(transit)):
                    u, v = transit[i], transit[j]
                    if not net.has_link(u, v) and rng.random() < TRANSIT_CHORD_PROB:
                        net.add_link(
                            u,
                            v,
                            cost=_uniform(rng, TRANSIT_COST),
                            delay=_uniform(rng, DELAY),
                            kind="transit",
                        )

        for t_node in transit:
            for _ in range(params.stubs_per_transit):
                members = net.add_nodes(stub_sizes[domain], kind="stub")
                _connect_random_tree(
                    net,
                    members,
                    rng,
                    STUB_COST,
                    DELAY,
                    kind="stub",
                    extra_edge_prob=EXTRA_EDGE_PROB,
                )
                gateway = members[int(rng.integers(0, len(members)))]
                net.add_link(
                    gateway,
                    t_node,
                    cost=_uniform(rng, GATEWAY_COST),
                    delay=_uniform(rng, DELAY),
                    kind="gateway",
                )
                domain += 1

    # Inter-domain links: a ring over transit domains (plus one chord for
    # 2 domains is redundant), connecting random backbone nodes.
    if params.transit_domains > 1:
        for i in range(params.transit_domains):
            j = (i + 1) % params.transit_domains
            if i == j or (params.transit_domains == 2 and i > j):
                continue
            u = domain_transit[i][int(rng.integers(0, len(domain_transit[i])))]
            v = domain_transit[j][int(rng.integers(0, len(domain_transit[j])))]
            if not net.has_link(u, v):
                net.add_link(
                    u,
                    v,
                    cost=_uniform(rng, INTER_DOMAIN_COST),
                    delay=_uniform(rng, DELAY),
                    kind="inter-domain",
                )
    return net


def transit_stub_by_size(n: int, seed: SeedLike = None) -> Network:
    """Transit-stub network with *exactly* ``n`` nodes.

    Keeps the default backbone shape (4 transit nodes x 4 stub domains
    each) and distributes the remaining ``n - transit`` nodes across
    stub domains as evenly as possible.  Used for the
    scalability experiment's 128/256/512/1024-node series and the 64- and
    32-node networks of the other experiments.
    """
    params = TransitStubParams()
    transit = params.transit_domains * params.transit_nodes
    domains = transit * params.stubs_per_transit
    if n < transit + domains:
        # Shrink the backbone for very small networks rather than failing.
        params = TransitStubParams(transit_nodes=max(1, n // 8))
        transit = params.transit_nodes
        domains = transit * params.stubs_per_transit
        if n < transit + domains:
            raise ValueError(f"cannot build a transit-stub network with only {n} nodes")
    stub_total = n - transit
    base, rem = divmod(stub_total, domains)
    stub_sizes = [base + (1 if i < rem else 0) for i in range(domains)]
    net = transit_stub(params=params, seed=seed, stub_sizes=stub_sizes)
    assert net.num_nodes == n, f"generator produced {net.num_nodes} nodes, wanted {n}"
    return net


def random_geometric(n: int, seed: SeedLike = None) -> Network:
    """Random geometric graph on the unit square.

    Nodes within :data:`GEOMETRIC_RADIUS` of each other are linked with
    cost proportional to Euclidean distance; a minimum-spanning-tree pass
    guarantees connectivity.  Handy for clustering tests because spatial
    locality translates directly into traversal-cost locality.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = as_generator(seed)
    points = rng.random((n, 2))
    net = Network()
    net.add_nodes(n)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= GEOMETRIC_RADIUS:
                net.add_link(i, j, cost=GEOMETRIC_COST_SCALE * float(dist[i, j]) + 1e-6, delay=0.001 + float(dist[i, j]) * 0.05)
    # Ensure connectivity: link each non-reached component via nearest pair.
    while not net.is_connected():
        seen = {0}
        stack = [0]
        while stack:
            cur = stack.pop()
            for nxt in net.neighbors(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        outside = [v for v in range(n) if v not in seen]
        best = min(((i, j) for i in seen for j in outside), key=lambda p: dist[p[0], p[1]])
        net.add_link(best[0], best[1], cost=GEOMETRIC_COST_SCALE * float(dist[best]) + 1e-6, delay=0.001 + float(dist[best]) * 0.05)
    return net


def motivating_network() -> tuple[Network, dict[str, int]]:
    """The Figure 3 example network of the paper's airline-OIS scenario.

    Returns the network plus a name -> node-id map with entries for the
    three stream source hosts (``WEATHER``, ``FLIGHTS``, ``CHECK-INS``),
    the five in-network processing nodes ``N1..N5`` and the five sinks
    ``Sink1..Sink5``.  Link costs are chosen so that the optimization
    opportunities discussed in Section 1.1 actually arise: the
    FLIGHTS x CHECK-INS join is cheap at N1, the link FLIGHTS-N2 is
    congested (expensive), and Sink3/Sink4 sit near N3.
    """
    net = Network()
    names = [
        "FLIGHTS", "WEATHER", "CHECK-INS",
        "N1", "N2", "N3", "N4", "N5",
        "Sink1", "Sink2", "Sink3", "Sink4", "Sink5",
    ]
    ids = {name: net.add_node(kind="stub") for name in names}
    edges = [
        ("FLIGHTS", "N1", 1.0),
        ("FLIGHTS", "N2", 8.0),   # congested link from the example
        ("CHECK-INS", "N1", 1.0),
        ("WEATHER", "N2", 1.0),
        ("N1", "N2", 2.0),
        ("N1", "N3", 2.0),
        ("N2", "N3", 2.0),
        ("N2", "N4", 3.0),
        ("N4", "N5", 2.0),
        ("N4", "Sink1", 1.0),
        ("N5", "Sink2", 1.0),
        ("N3", "Sink3", 1.0),
        ("N3", "Sink4", 1.0),
        ("N1", "Sink5", 1.0),
    ]
    for u, v, cost in edges:
        net.add_link(ids[u], ids[v], cost=cost, delay=0.005)
    return net, ids
