"""Small regular topologies the tests build networks from.

Paths, cycles, stars and grids with uniform link costs: shapes whose
shortest paths a test can work out by hand.  The shipped generators
(:mod:`repro.network.topology`) build transit-stub and random geometric
networks.
"""

from __future__ import annotations

from repro.network.graph import Network


def line(n: int, cost: float = 1.0, delay: float = 0.001) -> Network:
    """Path graph 0-1-2-...-(n-1) with uniform link costs."""
    if n < 1:
        raise ValueError("n must be positive")
    net = Network()
    net.add_nodes(n)
    for i in range(n - 1):
        net.add_link(i, i + 1, cost=cost, delay=delay)
    return net


def ring(n: int, cost: float = 1.0, delay: float = 0.001) -> Network:
    """Cycle graph over ``n >= 3`` nodes with uniform link costs."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    net = line(n, cost=cost, delay=delay)
    net.add_link(n - 1, 0, cost=cost, delay=delay)
    return net


def star(n: int, cost: float = 1.0, delay: float = 0.001) -> Network:
    """Star graph: node 0 is the hub, nodes 1..n-1 are leaves."""
    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    net = Network()
    net.add_nodes(n)
    for i in range(1, n):
        net.add_link(0, i, cost=cost, delay=delay)
    return net


def grid(rows: int, cols: int, cost: float = 1.0, delay: float = 0.001) -> Network:
    """2-D grid graph with uniform link costs; node id = row * cols + col."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    net = Network()
    net.add_nodes(rows * cols)
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                net.add_link(node, node + 1, cost=cost, delay=delay)
            if r + 1 < rows:
                net.add_link(node, node + cols, cost=cost, delay=delay)
    return net
