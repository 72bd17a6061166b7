"""Unit tests for the Network graph substrate."""

import numpy as np
import pytest

from repro.network import Link, Network
from tests.network.shapes import line, ring, star


class TestLink:
    def test_canonical_endpoint_order(self):
        link = Link(5, 2, cost=1.0)
        assert (link.u, link.v) == (2, 5)

    def test_preserves_already_sorted_order(self):
        link = Link(1, 7, cost=3.0)
        assert (link.u, link.v) == (1, 7)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Link(3, 3, cost=1.0)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError, match="negative link cost"):
            Link(0, 1, cost=-1.0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="negative link delay"):
            Link(0, 1, cost=1.0, delay=-0.5)


class TestNetworkConstruction:
    def test_empty_network(self):
        net = Network()
        assert net.num_nodes == 0
        assert net.num_links == 0
        assert net.is_connected()  # vacuously

    def test_add_node_returns_sequential_ids(self):
        net = Network()
        assert net.add_node() == 0
        assert net.add_node() == 1
        assert net.add_nodes(3) == [2, 3, 4]

    def test_node_kind_tagging(self):
        net = Network()
        t = net.add_node(kind="transit")
        s = net.add_node(kind="stub")
        assert net.node_kind(t) == "transit"
        assert net.nodes_of_kind("stub") == [s]

    def test_add_link_and_lookup(self):
        net = Network()
        net.add_nodes(3)
        net.add_link(2, 0, cost=4.0, delay=0.01)
        assert net.has_link(0, 2)
        assert net.has_link(2, 0)
        assert net.link(0, 2).cost == 4.0
        assert net.link(2, 0).delay == 0.01

    def test_duplicate_link_rejected(self):
        net = Network()
        net.add_nodes(2)
        net.add_link(0, 1, cost=1.0)
        with pytest.raises(ValueError, match="already exists"):
            net.add_link(1, 0, cost=2.0)

    def test_link_to_missing_node_rejected(self):
        net = Network()
        net.add_node()
        with pytest.raises(KeyError):
            net.add_link(0, 99, cost=1.0)

    def test_neighbors_and_degree(self):
        net = star(5)
        assert net.neighbors(0) == [1, 2, 3, 4]
        assert net.neighbors(3) == [0]


class TestNetworkMutation:
    def test_set_link_cost(self):
        net = line(2)
        net.set_link_cost(0, 1, 9.0)
        assert net.link(0, 1).cost == 9.0

    def test_set_link_cost_rejects_negative(self):
        net = line(2)
        with pytest.raises(ValueError):
            net.set_link_cost(0, 1, -2.0)

    def test_mutation_bumps_version(self):
        net = line(2)
        v0 = net.version
        net.set_link_cost(0, 1, 2.0)
        assert net.version > v0

    def test_copy_is_independent(self):
        net = line(3)
        clone = net.copy()
        clone.set_link_cost(0, 1, 50.0)
        assert net.link(0, 1).cost == 1.0
        assert clone.link(0, 1).cost == 50.0


class TestMatrices:
    def test_cost_matrix_line(self):
        net = line(4, cost=2.0)
        c = net.cost_matrix()
        assert c[0, 3] == pytest.approx(6.0)
        assert c[1, 2] == pytest.approx(2.0)
        assert np.allclose(np.diag(c), 0.0)

    def test_cost_matrix_symmetric(self):
        net = ring(6, cost=1.5)
        c = net.cost_matrix()
        assert np.allclose(c, c.T)

    def test_ring_uses_shorter_arc(self):
        net = ring(6)
        assert net.cost_matrix()[0, 3] == pytest.approx(3.0)
        assert net.cost_matrix()[0, 5] == pytest.approx(1.0)

    def test_cost_matrix_cached_until_mutation(self):
        net = line(5)
        c1 = net.cost_matrix()
        assert net.cost_matrix() is c1
        net.set_link_cost(0, 1, 7.0)
        c2 = net.cost_matrix()
        assert c2 is not c1
        assert c2[0, 1] == pytest.approx(7.0)

    def test_delay_matrix(self):
        net = line(3, delay=0.01)
        d = net.delay_matrix()
        assert d[0, 2] == pytest.approx(0.02)

    def test_disconnected_network_raises(self):
        net = Network()
        net.add_nodes(2)
        with pytest.raises(ValueError, match="disconnected"):
            net.cost_matrix()

    def test_shortest_path_prefers_cheap_detour(self):
        net = Network()
        net.add_nodes(3)
        net.add_link(0, 2, cost=10.0)
        net.add_link(0, 1, cost=1.0)
        net.add_link(1, 2, cost=1.0)
        assert net.cost_matrix()[0, 2] == pytest.approx(2.0)


class TestExport:
    def test_to_networkx_roundtrip(self):
        net = ring(5, cost=2.0)
        g = net.to_networkx()
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 5
        assert g.edges[0, 1]["cost"] == 2.0
