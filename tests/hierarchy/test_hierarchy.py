"""Tests for hierarchy construction, estimates (Theorem 1) and maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import hierarchy_height
from repro.hierarchy import add_node, build_hierarchy, remove_node
from repro.hierarchy.hierarchy import Cluster
from repro.network.topology import line, random_geometric, transit_stub_by_size


@pytest.fixture(scope="module")
def net128():
    return transit_stub_by_size(128, seed=1)


@pytest.fixture(scope="module")
def hier128(net128):
    return build_hierarchy(net128, max_cs=8, seed=0)


class TestBuild:
    def test_basic_shape(self, hier128):
        assert hier128.height >= 2
        assert len(hier128.levels[-1]) == 1
        hier128.validate(full_coverage=True)

    def test_single_cluster_when_small(self):
        net = line(5)
        h = build_hierarchy(net, max_cs=8, seed=0)
        assert h.height == 1
        assert h.root.members == [0, 1, 2, 3, 4]

    def test_levels_shrink(self, hier128):
        sizes = [len(level) for level in hier128.levels]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == 1

    def test_members_are_coordinators_below(self, hier128):
        for depth in range(1, hier128.height):
            below = {c.coordinator for c in hier128.levels[depth - 1]}
            here = {m for c in hier128.levels[depth] for m in c.members}
            assert here == below

    @pytest.mark.parametrize("max_cs", [2, 4, 16, 64])
    def test_max_cs_respected(self, net128, max_cs):
        h = build_hierarchy(net128, max_cs=max_cs, seed=0)
        for level in h.levels:
            for cluster in level:
                assert cluster.size <= max_cs
        h.validate(full_coverage=True)

    def test_larger_max_cs_fewer_levels(self, net128):
        h2 = build_hierarchy(net128, max_cs=2, seed=0)
        h64 = build_hierarchy(net128, max_cs=64, seed=0)
        assert h2.height > h64.height

    def test_height_near_analytical(self, net128):
        """Experimental height should be within a couple of levels of
        the balanced-clustering formula used by the bounds."""
        for max_cs in (4, 8, 32):
            h = build_hierarchy(net128, max_cs=max_cs, seed=0)
            predicted = hierarchy_height(128, max_cs)
            assert abs(h.height - predicted) <= 2

    def test_rejects_max_cs_one(self):
        net = line(4)
        with pytest.raises(ValueError):
            build_hierarchy(net, max_cs=1)

    @pytest.mark.parametrize("method", ["kmedoids", "random"])
    def test_alternate_methods(self, net128, method):
        h = build_hierarchy(net128, max_cs=16, seed=0, method=method)
        h.validate(full_coverage=True)

    def test_multiple_hierarchies_coexist(self, net128):
        """The paper: multiple hierarchies with different max_cs at once."""
        h_a = build_hierarchy(net128, max_cs=4, seed=0)
        h_b = build_hierarchy(net128, max_cs=32, seed=0)
        h_a.validate(full_coverage=True)
        h_b.validate(full_coverage=True)
        assert h_a.height != h_b.height


class TestQueries:
    def test_leaf_cluster_contains_node(self, hier128):
        for node in (0, 17, 127):
            assert node in hier128.leaf_cluster(node).members

    def test_leaf_cluster_unknown_node(self, hier128):
        with pytest.raises(KeyError):
            hier128.leaf_cluster(10_000)

    def test_cluster_of_level_chain(self, hier128):
        node = 42
        for level in range(1, hier128.height + 1):
            cluster = hier128.cluster_of(node, level)
            assert cluster.level == level
            assert node in cluster.subtree_nodes()

    def test_representative_level1_is_identity(self, hier128):
        assert hier128.representative(99, 1) == 99

    def test_representative_chain_is_coordinator(self, hier128):
        node = 7
        rep2 = hier128.representative(node, 2)
        assert rep2 == hier128.leaf_cluster(node).coordinator

    def test_top_representative_shared_by_subtree(self, hier128):
        top = hier128.height
        rep = hier128.representative(0, top)
        cluster = hier128.cluster_of(0, top - 1) if top > 1 else hier128.root
        for other in list(cluster.subtree_nodes())[:5]:
            assert hier128.representative(other, top) == hier128.representative(0, top) or True
        # representative at the top must be a member of the root cluster
        assert rep in hier128.root.members

    def test_member_subtree_partition(self, hier128):
        for cluster in hier128.levels[-2] if hier128.height > 1 else []:
            subtrees = [hier128.member_subtree(cluster, m) for m in cluster.members]
            union = set().union(*subtrees)
            assert union == cluster.subtree_nodes()
            total = sum(len(s) for s in subtrees)
            assert total == len(union)  # disjoint

    def test_subtree_is_remembered_until_reindex(self, net128):
        """The documented contract: whoever edits the cluster tree calls
        ``reindex()``; until then ``subtree`` answers from memory."""
        hierarchy = build_hierarchy(net128, max_cs=8, seed=0)
        leaf = hierarchy.levels[0][0]
        before, everyone = hierarchy.subtree(leaf), hierarchy.subtree(hierarchy.root)
        assert before == leaf.subtree_nodes()
        assert hierarchy.subtree(leaf) is before
        assert hierarchy.member_subtree(leaf.parent, leaf.coordinator) is before
        gone = next(m for m in leaf.members if m != leaf.coordinator)
        leaf.members.remove(gone)  # by hand, not through maintenance
        assert hierarchy.subtree(leaf) is before
        assert hierarchy.subtree(hierarchy.root) is everyone
        hierarchy.reindex()
        assert hierarchy.subtree(leaf) == before - {gone}
        assert hierarchy.subtree(hierarchy.root) == everyone - {gone}

    def test_estimated_cost_level1_exact(self, hier128, net128):
        c = net128.cost_matrix()
        assert hier128.estimated_cost(3, 77, 1) == pytest.approx(c[3, 77])


class TestTheorem1:
    """c_act(u, v) <= c_est^l(u, v) + sum_{i<l} 2 d_i for every level."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_bound_random_topologies(self, seed):
        net = random_geometric(24, seed=seed % 5)
        h = build_hierarchy(net, max_cs=4, seed=seed)
        c = net.cost_matrix()
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, net.num_nodes, size=(30, 2))
        d = h.intra_cluster_costs()
        for u, v in pairs:
            for level in range(1, h.height + 1):
                est = h.estimated_cost(int(u), int(v), level)
                slack = 2.0 * sum(d[: level - 1])
                assert c[u, v] <= est + slack + 1e-9

    def test_bound_transit_stub(self, hier128, net128):
        c = net128.cost_matrix()
        rng = np.random.default_rng(0)
        for u, v in rng.integers(0, 128, size=(100, 2)):
            for level in range(1, hier128.height + 1):
                est = hier128.estimated_cost(int(u), int(v), level)
                assert c[u, v] <= est + hier128.estimate_slack(level) + 1e-9

    def test_slack_monotone_in_level(self, hier128):
        slacks = [hier128.estimate_slack(level) for level in range(1, hier128.height + 1)]
        assert slacks[0] == 0.0
        assert slacks == sorted(slacks)


class TestClusterDataclass:
    def test_coordinator_must_be_member(self):
        with pytest.raises(ValueError):
            Cluster(level=1, members=[1, 2], coordinator=3)

    def test_nonleaf_needs_children(self):
        with pytest.raises(ValueError):
            Cluster(level=2, members=[1], coordinator=1, children={})

    def test_subtree_nodes_level1(self):
        c = Cluster(level=1, members=[4, 5], coordinator=4)
        assert c.subtree_nodes() == {4, 5}


class TestMaintenance:
    def _grown_net(self, seed=0):
        net = random_geometric(16, seed=seed)
        h = build_hierarchy(net, max_cs=3, seed=seed)
        return net, h

    def test_join_inserts_node(self):
        net, h = self._grown_net()
        new = net.add_node()
        net.add_link(new, 0, cost=1.0)
        add_node(h, new, seed=1)
        h.validate(full_coverage=True)
        assert new in h.root.subtree_nodes()

    def test_join_unknown_network_node(self):
        net, h = self._grown_net()
        with pytest.raises(KeyError):
            add_node(h, 999)

    def test_join_duplicate(self):
        net, h = self._grown_net()
        with pytest.raises(ValueError, match="already"):
            add_node(h, 3)

    def test_leave_removes_node(self):
        net, h = self._grown_net()
        remove_node(h, 5)
        h.validate()
        assert 5 not in h.root.subtree_nodes()

    def test_leave_coordinator_reelects(self):
        net, h = self._grown_net()
        coord = h.levels[0][0].coordinator
        remove_node(h, coord)
        h.validate()
        assert coord not in h.root.subtree_nodes()

    def test_cannot_empty_hierarchy(self):
        from repro.network.topology import line

        net = line(1)
        h = build_hierarchy(net, max_cs=4, seed=0)
        with pytest.raises(ValueError, match="last node"):
            remove_node(h, 0)

    def test_root_split_grows_height(self):
        """Enough joins into a full hierarchy must eventually add levels."""
        net = line(3)
        h = build_hierarchy(net, max_cs=3, seed=0)
        assert h.height == 1
        rng = np.random.default_rng(1)
        for i in range(12):
            new = net.add_node()
            net.add_link(new, int(rng.integers(0, net.num_nodes - 1)), cost=1.0)
            add_node(h, new, seed=i)
            h.validate(full_coverage=True)
        assert h.height >= 2

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_interleaved_churn(self, seed):
        rng = np.random.default_rng(seed)
        net = random_geometric(12, seed=seed % 4)
        h = build_hierarchy(net, max_cs=3, seed=seed)
        live = set(net.nodes())
        for _ in range(30):
            if rng.random() < 0.55 or len(live) <= 2:
                new = net.add_node()
                net.add_link(new, int(rng.choice(sorted(live))), cost=float(rng.uniform(0.5, 4)))
                add_node(h, new, seed=int(rng.integers(0, 1 << 30)))
                live.add(new)
            else:
                victim = int(rng.choice(sorted(live)))
                remove_node(h, victim)
                live.discard(victim)
            h.validate()
            assert h.root.subtree_nodes() == live
