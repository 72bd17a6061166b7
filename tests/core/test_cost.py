"""Tests for the rate model and the communication-cost objective."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import RateModel, deployment_cost
from repro.core.enumeration import all_join_trees
from repro.query.deployment import Deployment
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import Filter, StreamSpec


@pytest.fixture()
def streams():
    return {
        "A": StreamSpec("A", 0, 100.0),
        "B": StreamSpec("B", 1, 200.0),
        "C": StreamSpec("C", 2, 50.0),
    }


@pytest.fixture()
def rates(streams):
    return RateModel(streams)


class TestRateModel:
    def test_base_rate(self, rates):
        q = Query("q", ["A"], sink=0)
        assert rates.rate_for(q, {"A"}) == 100.0

    def test_filter_scales_rate(self, rates):
        q = Query("q", ["A"], sink=0, filters=[Filter("A", "p", 0.25)])
        assert rates.rate_for(q, {"A"}) == 25.0

    def test_join_rate(self, rates):
        q = Query("q", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.01)])
        assert rates.rate_for(q, {"A", "B"}) == pytest.approx(100 * 200 * 0.01)

    def test_missing_predicate_is_cross_product(self, rates):
        q = Query(
            "q",
            ["A", "B", "C"],
            sink=0,
            predicates=[JoinPredicate("A", "B", 0.01), JoinPredicate("B", "C", 0.1)],
        )
        # {A, C} has no predicate: cross product rate
        assert rates.rate_for(q, {"A", "C"}) == pytest.approx(100 * 50)

    def test_unknown_stream(self, rates):
        with pytest.raises(KeyError, match="unknown stream"):
            rates.stream("Z")

    def test_source_lookup(self, rates):
        assert rates.source("B") == 1

    def test_endpoints_are_sink_and_source_nodes(self, rates):
        q = Query("q", ["A", "C"], sink=7, predicates=[JoinPredicate("A", "C", 0.1)])
        assert rates.endpoints(q) == {0, 2, 7}

    def test_rate_cached_by_signature(self, rates):
        q = Query("q", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.01)])
        r1 = rates.rate_for(q, {"A", "B"})
        q2 = Query("q2", ["A", "B"], sink=5, predicates=[JoinPredicate("A", "B", 0.01)])
        assert rates.rate_for(q2, {"A", "B"}) == r1

    def test_invalid_inflation(self, streams):
        with pytest.raises(ValueError):
            RateModel(streams, reuse_rate_inflation=0.9)


class TestJoinOrderInvariance:
    """Final output rate must not depend on the chosen tree shape."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_all_trees_same_root_rate(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        names = ["A", "B", "C", "D"]
        streams = {
            n: StreamSpec(n, i, float(rng.uniform(10, 100))) for i, n in enumerate(names)
        }
        rates = RateModel(streams)
        preds = [
            JoinPredicate(names[i], names[i + 1], float(rng.uniform(0.001, 0.5)))
            for i in range(3)
        ]
        q = Query("q", names, sink=0, predicates=preds)
        trees = all_join_trees([frozenset((n,)) for n in names])
        root_rates = {rates.rate_for(q, t.sources) for t in trees}
        assert len(root_rates) == 1

    def test_intermediate_rates_differ_by_shape(self, rates):
        q = Query(
            "q",
            ["A", "B", "C"],
            sink=0,
            predicates=[JoinPredicate("A", "B", 0.001), JoinPredicate("B", "C", 0.5)],
        )
        t1 = Join(Join(Leaf.of("A"), Leaf.of("B")), Leaf.of("C"))
        t2 = Join(Join(Leaf.of("B"), Leaf.of("C")), Leaf.of("A"))
        # Same root, different intermediate: A x B versus B x C.
        v1 = rates.rate_for(q, t1.left.sources)
        v2 = rates.rate_for(q, t2.left.sources)
        assert v1 != pytest.approx(v2)


class TestFactorOrder:
    """A rate is one function of its factors, whatever order the
    signature's sets iterate in, and a few ulps from any running product."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rate_does_not_follow_the_order_sets_were_built_in(self, data):
        names = data.draw(st.lists(st.sampled_from("ABCDEFGH"), min_size=1, max_size=6, unique=True))
        streams = {n: StreamSpec(n, i, data.draw(st.floats(0.1, 1e4))) for i, n in enumerate(names)}
        sel = st.floats(1e-4, 1.0)
        preds = [
            JoinPredicate(names[i], names[data.draw(st.integers(0, i - 1))], data.draw(sel))
            for i in range(1, len(names))
        ]
        filters = [
            Filter(data.draw(st.sampled_from(names)), f"x > {k}", data.draw(sel))
            for k in range(data.draw(st.integers(0, 3)))
        ]
        window = data.draw(st.sampled_from([0.5, 0.25, 2.0]))
        query = Query("q", names, 0, preds, filters, window=window)
        rate = RateModel(streams).rate_for(query, names)

        # Every list in another order: the signature's frozensets are
        # built in another insertion order.
        twin = Query(
            "twin",
            data.draw(st.permutations(names)),
            0,
            data.draw(st.permutations(preds)),
            data.draw(st.permutations(filters)),
            window=window,
        )
        assert RateModel(streams).rate_for(twin, names) == rate

        factors = [streams[n].rate for n in names]
        factors += [f.selectivity for f in filters] + [p.selectivity for p in preds]
        for order in (factors, data.draw(st.permutations(factors))):
            product = 1.0
            for factor in order:
                product *= factor
            product *= (2.0 * window) ** (len(names) - 1)
            assert abs(product - rate) <= 2 * (len(factors) + 1) * math.ulp(rate)


class TestFlowRates:
    def test_reuse_leaf_inflated(self, streams):
        rates = RateModel(streams, reuse_rate_inflation=2.0)
        q = Query("q", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.01)])
        reuse = Leaf.of("A", "B")
        flows = rates.flow_rates(q, reuse)
        assert flows[reuse] == pytest.approx(2.0 * rates.rate_for(q, {"A", "B"}))

    def test_base_leaf_not_inflated(self, streams):
        rates = RateModel(streams, reuse_rate_inflation=2.0)
        q = Query("q", ["A"], sink=0)
        leaf = Leaf.of("A")
        assert rates.flow_rates(q, leaf)[leaf] == 100.0

    def test_pricer_prices_a_source_set_once(self, streams, monkeypatch):
        rates = RateModel(streams, reuse_rate_inflation=2.0)
        q = Query("q", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "B", 0.01)])
        priced = []
        rate_for = rates.rate_for
        monkeypatch.setattr(
            rates, "rate_for", lambda query, subset: priced.append(subset) or rate_for(query, subset)
        )
        flow = rates.flow_pricer(q)
        join, reuse = Join(Leaf.of("A"), Leaf.of("B")), Leaf.of("A", "B")
        assert flow(reuse) == 2.0 * flow(join) == 2.0 * flow(Join(Leaf.of("B"), Leaf.of("A")))
        assert priced == [frozenset("AB")]


class TestDeploymentCost:
    def test_line_network_hand_computed(self, rates):
        from repro.network.topology import line

        net = line(5, cost=2.0)
        q = Query("q", ["A", "B"], sink=4, predicates=[JoinPredicate("A", "B", 0.01)])
        a, b = Leaf.of("A"), Leaf.of("B")
        join = Join(a, b)
        d = Deployment(query=q, plan=join, placement={a: 0, b: 1, join: 2})
        cost = deployment_cost(d, net.cost_matrix(), rates)
        expected = 100 * 2 * 2.0 + 200 * 1 * 2.0 + (100 * 200 * 0.01) * 2 * 2.0
        assert cost == pytest.approx(expected)

    def test_sink_colocation_free_delivery(self, rates):
        from repro.network.topology import line

        net = line(3)
        q = Query("q", ["A", "B"], sink=2, predicates=[JoinPredicate("A", "B", 0.01)])
        a, b = Leaf.of("A"), Leaf.of("B")
        join = Join(a, b)
        d = Deployment(query=q, plan=join, placement={a: 0, b: 1, join: 2})
        cost = deployment_cost(d, net.cost_matrix(), rates)
        assert cost == pytest.approx(100 * 2 + 200 * 1)
