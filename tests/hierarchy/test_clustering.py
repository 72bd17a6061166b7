"""Tests for k-means / k-medoids clustering and size-capped partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hierarchy.clustering import (
    capped_clusters,
    choose_medoid,
    kmeans,
    kmedoids,
    random_clustering,
)
from repro.network.topology import random_geometric, transit_stub_by_size
from tests.network.shapes import line


def _well_separated_points(rng, groups=3, per_group=10, spread=0.05, gap=10.0):
    pts = []
    for g in range(groups):
        center = np.array([g * gap, 0.0])
        pts.append(center + rng.normal(scale=spread, size=(per_group, 2)))
    return np.vstack(pts)


class TestKmeans:
    def test_partitions_all_points(self):
        rng = np.random.default_rng(0)
        pts = rng.random((30, 3))
        clusters = kmeans(pts, 4, seed=1)
        flat = sorted(i for c in clusters for i in c)
        assert flat == list(range(30))
        assert len(clusters) == 4
        assert all(clusters)  # non-empty

    def test_recovers_separated_groups(self):
        rng = np.random.default_rng(1)
        pts = _well_separated_points(rng)
        clusters = kmeans(pts, 3, seed=2)
        found = {frozenset(c) for c in clusters}
        expected = {frozenset(range(0, 10)), frozenset(range(10, 20)), frozenset(range(20, 30))}
        assert found == expected

    def test_k_equals_n(self):
        pts = np.arange(10, dtype=float).reshape(-1, 1) * 5
        clusters = kmeans(pts, 10, seed=0)
        assert sorted(len(c) for c in clusters) == [1] * 10

    def test_k_one(self):
        pts = np.random.default_rng(2).random((7, 2))
        clusters = kmeans(pts, 1, seed=0)
        assert clusters == [list(range(7))]

    def test_invalid_k(self):
        pts = np.zeros((5, 2))
        with pytest.raises(ValueError):
            kmeans(pts, 0)
        with pytest.raises(ValueError):
            kmeans(pts, 6)

    def test_identical_points_dont_crash(self):
        pts = np.ones((8, 2))
        clusters = kmeans(pts, 3, seed=0)
        assert sorted(i for c in clusters for i in c) == list(range(8))


class TestKmedoids:
    def test_partitions_all_points(self):
        net = random_geometric(25, seed=3)
        clusters = kmedoids(net.cost_matrix(), 5, seed=4)
        flat = sorted(i for c in clusters for i in c)
        assert flat == list(range(25))

    def test_recovers_separated_groups_on_metric(self):
        rng = np.random.default_rng(5)
        pts = _well_separated_points(rng)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        clusters = kmedoids(dist, 3, seed=6)
        found = {frozenset(c) for c in clusters}
        expected = {frozenset(range(0, 10)), frozenset(range(10, 20)), frozenset(range(20, 30))}
        assert found == expected

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            kmedoids(np.zeros((3, 4)), 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmedoids(np.zeros((4, 4)), 5)


class TestRandomClustering:
    def test_partitions_and_balance(self):
        clusters = random_clustering(20, 4, seed=0)
        flat = sorted(i for c in clusters for i in c)
        assert flat == list(range(20))
        assert all(len(c) == 5 for c in clusters)

    def test_reproducible(self):
        assert random_clustering(15, 3, seed=7) == random_clustering(15, 3, seed=7)


class TestChooseMedoid:
    def test_line_medoid_is_center(self):
        net = line(5)
        assert choose_medoid([0, 1, 2, 3, 4], net.cost_matrix()) == 2

    def test_single_member(self):
        net = line(3)
        assert choose_medoid([1], net.cost_matrix()) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            choose_medoid([], np.zeros((3, 3)))

    def test_medoid_is_a_member(self):
        net = random_geometric(20, seed=8)
        members = [3, 7, 11, 19]
        assert choose_medoid(members, net.cost_matrix()) in members


class TestCappedClusters:
    @pytest.mark.parametrize("method", ["kmeans", "kmedoids", "random"])
    def test_respects_cap_and_partitions(self, method):
        net = transit_stub_by_size(64, seed=9)
        clusters = capped_clusters(net.nodes(), net.cost_matrix(), max_cs=8, seed=1, method=method)
        flat = sorted(i for c in clusters for i in c)
        assert flat == net.nodes()
        assert all(1 <= len(c) <= 8 for c in clusters)

    def test_small_input_single_cluster(self):
        net = line(4)
        clusters = capped_clusters([0, 1, 2, 3], net.cost_matrix(), max_cs=10, seed=0)
        assert clusters == [[0, 1, 2, 3]]

    def test_subset_of_nodes(self):
        net = random_geometric(30, seed=10)
        subset = [1, 4, 9, 16, 25, 28]
        clusters = capped_clusters(subset, net.cost_matrix(), max_cs=2, seed=0)
        assert sorted(i for c in clusters for i in c) == subset
        assert all(len(c) <= 2 for c in clusters)

    def test_groups_follow_cost_locality(self):
        """Two cheap cliques joined by one expensive link should split apart."""
        from repro.network.graph import Network

        net = Network()
        net.add_nodes(6)
        for group in ([0, 1, 2], [3, 4, 5]):
            for i in range(3):
                for j in range(i + 1, 3):
                    net.add_link(group[i], group[j], cost=1.0)
        net.add_link(2, 3, cost=100.0)
        clusters = capped_clusters(net.nodes(), net.cost_matrix(), max_cs=3, seed=0)
        assert {frozenset(c) for c in clusters} == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_unknown_method(self):
        net = line(5)
        with pytest.raises(ValueError, match="unknown clustering method"):
            capped_clusters(net.nodes(), net.cost_matrix(), 2, method="magic")

    def test_invalid_max_cs(self):
        net = line(5)
        with pytest.raises(ValueError):
            capped_clusters(net.nodes(), net.cost_matrix(), 0)

    def test_empty_items(self):
        net = line(3)
        with pytest.raises(ValueError):
            capped_clusters([], net.cost_matrix(), 2)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), max_cs=st.integers(2, 12))
    def test_property_cap_always_holds(self, seed, max_cs):
        net = random_geometric(25, seed=seed % 7)
        clusters = capped_clusters(net.nodes(), net.cost_matrix(), max_cs, seed=seed)
        assert sorted(i for c in clusters for i in c) == net.nodes()
        assert all(1 <= len(c) <= max_cs for c in clusters)
