"""Unit tests for the stream advertisement index."""

import pytest

import repro
from repro.hierarchy import AdvertisementIndex, build_hierarchy
from repro.network.topology import transit_stub_by_size
from repro.query.query import JoinPredicate, Query


@pytest.fixture()
def setup():
    net = transit_stub_by_size(32, seed=181)
    hierarchy = build_hierarchy(net, max_cs=4, seed=0)
    ads = AdvertisementIndex(hierarchy)
    return net, hierarchy, ads


def _query(sink=0, sel=0.01):
    return Query("q", ["A", "B"], sink=sink, predicates=[JoinPredicate("A", "B", sel)])


def _sig(sink=0, sel=0.01):
    return _query(sink, sel).view_signature()


class TestBaseAdvertisements:
    def test_advertise_and_lookup(self, setup):
        net, hierarchy, ads = setup
        ads.advertise_base("A", 5)
        assert ads.base_streams() == {"A": 5}

    def test_message_cost_one_per_level(self, setup):
        net, hierarchy, ads = setup
        before = ads.messages_sent
        ads.advertise_base("A", 5)
        assert ads.messages_sent - before == hierarchy.height

    def test_conflicting_base_rejected(self, setup):
        net, hierarchy, ads = setup
        ads.advertise_base("A", 5)
        with pytest.raises(ValueError, match="already advertised"):
            ads.advertise_base("A", 6)
        ads.advertise_base("A", 5)  # same node: idempotent

    def test_unknown_node_rejected(self, setup):
        net, hierarchy, ads = setup
        with pytest.raises(KeyError):
            ads.advertise_base("A", 999)

    def test_unknown_stream_lookup(self, setup):
        net, hierarchy, ads = setup
        assert ads.base_member(hierarchy.root, "GHOST") is None

    def test_streams_in_cluster_scoping(self, setup):
        net, hierarchy, ads = setup
        ads.advertise_base("A", 5)
        leaf = hierarchy.leaf_cluster(5)
        assert ads.base_member(leaf, "A") == 5
        other = next(c for c in hierarchy.levels[0] if 5 not in c.members)
        assert ads.base_member(other, "A") is None
        assert ads.base_member(hierarchy.root, "A") is not None

    def test_base_member_resolution(self, setup):
        net, hierarchy, ads = setup
        ads.advertise_base("A", 5)
        root = hierarchy.root
        member = ads.base_member(root, "A")
        assert member in root.members
        assert 5 in hierarchy.member_subtree(root, member)
        assert ads.base_member(root, "GHOST") is None


class TestViewAdvertisements:
    def test_advertise_idempotent(self, setup):
        net, hierarchy, ads = setup
        sig = _sig()
        before = ads.messages_sent
        ads.advertise_view(sig, 7)
        ads.advertise_view(sig, 7)  # one-time message per (sig, node)
        assert ads.messages_sent - before == hierarchy.height
        assert ads.view_nodes(sig) == {7}

    def test_multiple_nodes(self, setup):
        net, hierarchy, ads = setup
        sig = _sig()
        ads.advertise_view(sig, 7)
        ads.advertise_view(sig, 9)
        assert ads.view_nodes(sig) == {7, 9}
        assert ads.views() == {sig: {7, 9}}

    def test_withdraw(self, setup):
        net, hierarchy, ads = setup
        sig = _sig()
        ads.advertise_view(sig, 7)
        ads.withdraw_view(sig, 7)
        assert ads.view_nodes(sig) == set()
        assert sig not in ads.views()

    def test_withdraw_missing_raises(self, setup):
        net, hierarchy, ads = setup
        with pytest.raises(KeyError, match="not advertised"):
            ads.withdraw_view(_sig(), 7)

    def test_views_in_cluster_scoping(self, setup):
        net, hierarchy, ads = setup
        sig = _sig()
        ads.advertise_view(sig, 7)
        reusable = ads.reusable_views(_query())
        assert reusable(hierarchy.leaf_cluster(7)) == {sig: {7}}
        assert reusable(hierarchy.root) == {sig: {7}}
        other = next(c for c in hierarchy.levels[0] if 7 not in c.members)
        assert reusable(other) == {}
        # Same streams, another predicate: not this query's sub-view.
        assert ads.reusable_views(_query(sel=0.02))(hierarchy.root) == {}

    def test_view_members(self, setup):
        net, hierarchy, ads = setup
        sig = _sig()
        ads.advertise_view(sig, 7)
        root = hierarchy.root
        members = ads.view_members(root, sig)
        assert len(members) == 1
        assert 7 in hierarchy.member_subtree(root, members.pop())

    def test_distinct_selectivities_distinct_views(self, setup):
        net, hierarchy, ads = setup
        ads.advertise_view(_sig(sel=0.01), 7)
        ads.advertise_view(_sig(sel=0.02), 7)
        assert len(ads.views()) == 2


class TestSyncFromState:
    def test_publish_and_reconcile(self, setup):
        net, hierarchy, ads = setup
        streams = {
            "A": repro.StreamSpec("A", 1, 50.0),
            "B": repro.StreamSpec("B", 2, 50.0),
        }
        rates = repro.RateModel(streams)
        state = repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)
        q = Query("q1", ["A", "B"], sink=10, predicates=[JoinPredicate("A", "B", 0.01)])
        planner = repro.OptimalPlanner(net, rates)
        state.apply(planner.plan(q, state))

        ads.sync_from_state(state)
        assert set(ads.views()) == set(state.advertised_views())

        state.undeploy("q1")
        ads.sync_from_state(state)
        assert ads.views() == {}
