"""Network substrate: weighted graphs, topology generators, routing, embeddings.

This subpackage models the physical network that stream operators are
deployed on.  It provides:

* :class:`repro.network.graph.Network` -- a mutable, undirected weighted
  graph with per-link *traversal cost* (cost of moving one unit of data
  across the link) and *delay* (seconds), plus cached all-pairs
  shortest-path matrices.
* :mod:`repro.network.topology` -- generators, most importantly the
  GT-ITM-style transit-stub generator used throughout the paper's
  evaluation.
* :mod:`repro.network.routing` -- shortest-path reconstruction.
* :mod:`repro.network.embedding` -- classical MDS embedding of the cost
  matrix into a low-dimensional "cost space" (used by the Relaxation
  baseline and by the k-means clustering of the hierarchy).
"""

from repro.network.graph import Link, Network
from repro.network.routing import shortest_path_nodes
from repro.network.topology import (
    motivating_network,
    random_geometric,
    transit_stub,
    transit_stub_by_size,
)
from repro.network.embedding import classical_mds, embed_network
from repro.network.objectives import delay_weighted

__all__ = [
    "Link",
    "Network",
    "shortest_path_nodes",
    "transit_stub",
    "transit_stub_by_size",
    "random_geometric",
    "motivating_network",
    "classical_mds",
    "embed_network",
    "delay_weighted",
]
