"""One Dijkstra pass fills both cost-weighted caches.

``Network.cost_matrix()`` and ``Network.predecessors()`` used to run two
full all-pairs searches over the same cost graph; they now share one
``shortest_path(..., return_predecessors=True)`` call.  Both matrices
must be byte-equal to the two separate searches they replace.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.network.graph import Network
from repro.network.topology import motivating_network, random_geometric, transit_stub_by_size
from tests.network.shapes import grid, ring

TOPOLOGIES = {
    "transit-stub-24": lambda: transit_stub_by_size(24, seed=3),
    "transit-stub-64": lambda: transit_stub_by_size(64, seed=11),
    "geometric-30": lambda: random_geometric(30, seed=5),
    "grid-5x6": lambda: grid(5, 6),
    "ring-9": lambda: ring(9),
    "motivating": lambda: motivating_network()[0],
}


def two_searches(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """The separate distance and predecessor searches of the old code."""
    n = net.num_nodes
    links = net.links()
    graph = csr_matrix(
        (
            np.asarray([link.cost for link in links], dtype=np.float64),
            (
                np.asarray([link.u for link in links], dtype=np.intp),
                np.asarray([link.v for link in links], dtype=np.intp),
            ),
        ),
        shape=(n, n),
    )
    costs = shortest_path(graph, method="D", directed=False)
    _, preds = shortest_path(graph, method="D", directed=False, return_predecessors=True)
    return costs, preds


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_both_matrices_are_the_two_searches_byte_for_byte(name):
    net = TOPOLOGIES[name]()
    costs, preds = two_searches(net)
    got_costs, got_preds = net.cost_matrix(), net.predecessors()
    assert got_costs.dtype == costs.dtype and got_costs.tobytes() == costs.tobytes()
    assert got_preds.dtype == preds.dtype and got_preds.tobytes() == preds.tobytes()


def test_one_pass_per_version(monkeypatch):
    import scipy.sparse.csgraph as csgraph

    calls = []
    real = csgraph.shortest_path

    def counting(*args, **kwargs):
        calls.append(kwargs.get("return_predecessors", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "shortest_path", counting)
    net = transit_stub_by_size(24, seed=3)
    net.cost_matrix()
    net.predecessors()
    net.cost_matrix()
    assert calls == [True]
    link = net.links()[0]
    net.set_link_cost(link.u, link.v, link.cost * 2.0)  # a new version
    net.predecessors()
    net.cost_matrix()
    assert calls == [True, True]
    assert net.cost_matrix().tobytes() == two_searches(net)[0].tobytes()


def test_a_disconnected_network_fails_as_before():
    net = Network()
    for node in range(4):
        net.add_node(node)
    net.add_link(0, 1, cost=1.0, delay=0.001)
    net.add_link(2, 3, cost=1.0, delay=0.001)
    with pytest.raises(ValueError, match="disconnected"):
        net.cost_matrix()
    with pytest.raises(ValueError, match="disconnected"):
        net.cost_matrix()  # every call, not only the first
    with pytest.raises(ValueError, match="disconnected"):
        net.delay_matrix()
    # The predecessor matrix never raised: unreachable pairs read -9999.
    preds = net.predecessors()
    assert preds[0, 2] == -9999 and preds[0, 1] == 0
