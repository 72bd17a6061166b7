"""Tests for path reconstruction and cost-space embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.embedding import classical_mds, embed_network
from repro.network.routing import path_links, shortest_path_nodes
from repro.network.topology import random_geometric, transit_stub_by_size
from tests.network.shapes import line, ring


def embedding_stress(distances: np.ndarray, coords: np.ndarray) -> float:
    """Normalized stress of an embedding (0 = perfect).

    ``sqrt(sum (d_ij - ||x_i - x_j||)^2 / sum d_ij^2)`` over ``i < j``:
    how faithful a cost-space embedding is.
    """
    d = np.asarray(distances, dtype=np.float64)
    diff = coords[:, None, :] - coords[None, :, :]
    emb = np.sqrt((diff**2).sum(axis=2))
    iu = np.triu_indices(d.shape[0], k=1)
    num = float(((d[iu] - emb[iu]) ** 2).sum())
    den = float((d[iu] ** 2).sum())
    if den == 0.0:
        return 0.0
    return float(np.sqrt(num / den))


class TestShortestPathNodes:
    def test_trivial_path(self):
        net = line(3)
        assert shortest_path_nodes(net, 1, 1) == [1]

    def test_line_path(self):
        net = line(5)
        assert shortest_path_nodes(net, 0, 4) == [0, 1, 2, 3, 4]

    def test_path_links(self):
        net = line(4)
        assert path_links(net, 0, 3) == [(0, 1), (1, 2), (2, 3)]

    def test_path_cost_matches_matrix(self):
        net = random_geometric(30, seed=3)
        c = net.cost_matrix()
        for src, dst in [(0, 29), (5, 17), (12, 3)]:
            hops = path_links(net, src, dst)
            total = sum(net.link(u, v).cost for u, v in hops)
            assert total == pytest.approx(c[src, dst])


class TestTriangleInequality:
    """Shortest-path matrices are metrics -- the hierarchy bounds rely on it."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_geometric_triangle_inequality(self, seed):
        net = random_geometric(15, seed=seed)
        c = net.cost_matrix()
        lhs = c[:, None, :]  # c[i, k]
        rhs = c[:, :, None] + c[None, :, :]  # c[i, j] + c[j, k]
        assert (lhs <= rhs + 1e-9).all()

    def test_transit_stub_triangle_inequality(self):
        net = transit_stub_by_size(64, seed=11)
        c = net.cost_matrix()
        assert (c[:, None, :] <= c[:, :, None] + c[None, :, :] + 1e-9).all()


class TestClassicalMds:
    def test_recovers_euclidean_configuration(self):
        rng = np.random.default_rng(0)
        pts = rng.random((12, 3))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        coords = classical_mds(dist, dim=3)
        rec = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
        assert np.allclose(rec, dist, atol=1e-8)

    def test_line_metric_needs_one_dimension(self):
        net = line(6)
        coords = classical_mds(net.cost_matrix(), dim=1)
        order = np.argsort(coords[:, 0])
        spacing = np.diff(np.sort(coords[:, 0]))
        assert np.allclose(spacing, 1.0, atol=1e-8)
        assert list(order) in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            classical_mds(np.zeros((3, 4)))

    def test_rejects_asymmetric(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            classical_mds(bad)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            classical_mds(np.zeros((3, 3)), dim=0)

    def test_embed_network_metrics(self):
        net = ring(8)
        c = embed_network(net, dim=2, metric="cost")
        d = embed_network(net, dim=2, metric="delay")
        assert c.shape == (8, 2)
        assert d.shape == (8, 2)
        with pytest.raises(ValueError, match="unknown metric"):
            embed_network(net, metric="hops")

    def test_stress_zero_for_perfect_embedding(self):
        rng = np.random.default_rng(1)
        pts = rng.random((10, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        coords = classical_mds(dist, dim=2)
        assert embedding_stress(dist, coords) < 1e-7

    def test_stress_reasonable_on_transit_stub(self):
        """The 3-D cost space should capture most of the structure."""
        net = transit_stub_by_size(64, seed=5)
        c = net.cost_matrix()
        coords = classical_mds(c, dim=3)
        assert embedding_stress(c, coords) < 0.5
