"""Routing helpers: explicit path reconstruction.

The optimizers only ever need the all-pairs traversal-cost matrix, which
:meth:`Network.cost_matrix` computes and caches by network version (data
is assumed to follow cheapest paths, matching the paper's "total data
transferred along each link times the link cost" when flows are routed
minimally).  The runtime additionally reconstructs the concrete node
sequence of each flow so that per-link utilization can be tracked.
"""

from __future__ import annotations

from repro.network.graph import Network


def shortest_path_nodes(network: Network, src: int, dst: int) -> list[int]:
    """The node sequence of the cheapest path from ``src`` to ``dst``.

    Includes both endpoints; ``src == dst`` yields ``[src]``.
    """
    if src == dst:
        return [src]
    preds = network.predecessors()
    path = [dst]
    cur = dst
    while cur != src:
        cur = int(preds[src, cur])
        if cur < 0:
            raise ValueError(f"no path from {src} to {dst}")
        path.append(cur)
    path.reverse()
    return path


def path_links(network: Network, src: int, dst: int) -> list[tuple[int, int]]:
    """The (u, v) link hops of the cheapest path from ``src`` to ``dst``."""
    nodes = shortest_path_nodes(network, src, dst)
    return list(zip(nodes[:-1], nodes[1:]))

