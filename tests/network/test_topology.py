"""Tests for topology generators."""

import numpy as np
import pytest

from repro.network.topology import (
    TransitStubParams,
    grid,
    line,
    motivating_network,
    random_geometric,
    ring,
    star,
    transit_stub,
    transit_stub_by_size,
)


class TestTransitStub:
    def test_default_shape(self):
        net = transit_stub(seed=0)
        params = TransitStubParams()
        assert net.num_nodes == params.total_nodes()
        assert net.is_connected()

    def test_node_kinds(self):
        net = transit_stub(seed=1)
        assert len(net.nodes_of_kind("transit")) == 4
        assert len(net.nodes_of_kind("stub")) == net.num_nodes - 4

    def test_stub_links_cheaper_than_transit_links(self):
        """The paper requires intranet links far cheaper than long-haul."""
        net = transit_stub(seed=2)
        stub_costs = [l.cost for l in net.links() if l.kind == "stub"]
        transit_costs = [l.cost for l in net.links() if l.kind == "transit"]
        assert stub_costs and transit_costs
        assert max(stub_costs) < min(transit_costs)

    def test_delays_in_paper_band(self):
        net = transit_stub(seed=3)
        for link in net.links():
            assert 0.001 <= link.delay <= 0.060

    def test_each_stub_domain_reaches_backbone_via_gateway(self):
        net = transit_stub(seed=4)
        gateways = [l for l in net.links() if l.kind == "gateway"]
        params = TransitStubParams()
        assert len(gateways) == params.transit_nodes * params.stubs_per_transit

    def test_reproducible_with_seed(self):
        a = transit_stub(seed=42)
        b = transit_stub(seed=42)
        assert a.num_links == b.num_links
        assert [(l.u, l.v, l.cost) for l in a.links()] == [
            (l.u, l.v, l.cost) for l in b.links()
        ]

    def test_different_seeds_differ(self):
        a = transit_stub(seed=1)
        b = transit_stub(seed=2)
        assert [(l.u, l.v) for l in a.links()] != [(l.u, l.v) for l in b.links()]

    def test_single_transit_node(self):
        params = TransitStubParams(transit_nodes=1, stubs_per_transit=2, stub_size=3)
        net = transit_stub(params, seed=0)
        assert net.num_nodes == 7
        assert net.is_connected()

    def test_two_transit_nodes(self):
        params = TransitStubParams(transit_nodes=2, stubs_per_transit=1, stub_size=2)
        net = transit_stub(params, seed=0)
        assert net.is_connected()
        assert net.has_link(0, 1)

    def test_explicit_stub_sizes(self):
        params = TransitStubParams(transit_nodes=2, stubs_per_transit=2, stub_size=1)
        net = transit_stub(params, seed=0, stub_sizes=[1, 2, 3, 4])
        assert net.num_nodes == 2 + 10

    def test_bad_stub_sizes_length(self):
        with pytest.raises(ValueError, match="entries"):
            transit_stub(seed=0, stub_sizes=[1, 2])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            transit_stub(TransitStubParams(transit_nodes=0), seed=0)
        with pytest.raises(ValueError):
            transit_stub(TransitStubParams(stub_size=0), seed=0)


class TestTransitStubBySize:
    @pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
    def test_exact_size(self, n):
        net = transit_stub_by_size(n, seed=n)
        assert net.num_nodes == n
        assert net.is_connected()

    def test_small_network_shrinks_backbone(self):
        net = transit_stub_by_size(24, seed=0)
        assert net.num_nodes == 24
        assert net.is_connected()

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            transit_stub_by_size(3, seed=0)


class TestSimpleTopologies:
    def test_line(self):
        net = line(5)
        assert net.num_links == 4
        assert net.cost_matrix()[0, 4] == pytest.approx(4.0)

    def test_ring_requires_three_nodes(self):
        with pytest.raises(ValueError):
            ring(2)

    def test_star_hub(self):
        net = star(6)
        assert len(net.neighbors(0)) == 5
        assert net.cost_matrix()[1, 2] == pytest.approx(2.0)

    def test_grid_dimensions(self):
        net = grid(3, 4)
        assert net.num_nodes == 12
        assert net.num_links == 3 * 3 + 2 * 4  # horizontal + vertical
        assert net.cost_matrix()[0, 11] == pytest.approx(5.0)

    def test_invalid_sizes(self):
        for factory, arg in [(line, 0), (star, 1)]:
            with pytest.raises(ValueError):
                factory(arg)
        with pytest.raises(ValueError):
            grid(0, 3)


class TestRandomGeometric:
    def test_connected_and_sized(self):
        net = random_geometric(40, seed=7)
        assert net.num_nodes == 40
        assert net.is_connected()

    def test_costs_positive(self):
        net = random_geometric(20, seed=8)
        assert all(l.cost > 0 for l in net.links())

    def test_reproducible(self):
        a = random_geometric(25, seed=9)
        b = random_geometric(25, seed=9)
        assert [(l.u, l.v) for l in a.links()] == [(l.u, l.v) for l in b.links()]


class TestMotivatingNetwork:
    def test_has_all_named_nodes(self):
        net, ids = motivating_network()
        for name in ["FLIGHTS", "WEATHER", "CHECK-INS", "N1", "N3", "Sink4"]:
            assert name in ids
        assert net.num_nodes == 13
        assert net.is_connected()

    def test_congested_flights_n2_link(self):
        """The Section 1.1 example: FLIGHTS-N2 is the expensive path."""
        net, ids = motivating_network()
        direct = net.link(ids["FLIGHTS"], ids["N2"]).cost
        via_n1 = net.link(ids["FLIGHTS"], ids["N1"]).cost + net.link(ids["N1"], ids["N2"]).cost
        assert via_n1 < direct


class TestMultiDomainTransitStub:
    def test_multi_domain_shape(self):
        params = TransitStubParams(
            transit_domains=3, transit_nodes=3, stubs_per_transit=2, stub_size=4
        )
        net = transit_stub(params, seed=0)
        assert net.num_nodes == params.total_nodes()
        assert net.is_connected()
        assert len(net.nodes_of_kind("transit")) == 9

    def test_inter_domain_links_exist(self):
        params = TransitStubParams(transit_domains=3, transit_nodes=2, stub_size=2)
        net = transit_stub(params, seed=1)
        inter = [l for l in net.links() if l.kind == "inter-domain"]
        assert len(inter) == 3  # ring over 3 domains

    def test_two_domains_single_link(self):
        params = TransitStubParams(transit_domains=2, transit_nodes=2, stub_size=2)
        net = transit_stub(params, seed=2)
        inter = [l for l in net.links() if l.kind == "inter-domain"]
        assert len(inter) == 1
        assert net.is_connected()

    def test_inter_domain_links_expensive(self):
        params = TransitStubParams(transit_domains=2, transit_nodes=3, stub_size=3)
        net = transit_stub(params, seed=3)
        inter_costs = [l.cost for l in net.links() if l.kind == "inter-domain"]
        stub_costs = [l.cost for l in net.links() if l.kind == "stub"]
        assert min(inter_costs) > max(stub_costs)

    def test_by_size_with_domains(self):
        params = TransitStubParams(transit_domains=2)
        net = transit_stub_by_size(150, seed=4, params=params)
        assert net.num_nodes == 150
        assert net.is_connected()

    def test_invalid_domains(self):
        with pytest.raises(ValueError):
            transit_stub(TransitStubParams(transit_domains=0), seed=0)
