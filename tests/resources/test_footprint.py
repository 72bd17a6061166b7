"""Operator footprints derive from the rate model."""

import pytest

from repro.core.cost import RateModel
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from repro.resources import OperatorFootprint, footprint
from tests.resources.reference_ledger import plan_loads


def _model():
    streams = {
        "A": StreamSpec("A", 0, 10.0),
        "B": StreamSpec("B", 1, 20.0),
        "C": StreamSpec("C", 2, 5.0),
    }
    rates = RateModel(streams)
    query = Query(
        "q",
        ["A", "B", "C"],
        sink=0,
        predicates=[
            JoinPredicate("A", "B", 0.01),
            JoinPredicate("B", "C", 0.1),
        ],
        window=0.5,
    )
    return rates, query


class TestJoinLoad:
    def test_dimensions_follow_the_rate_model(self):
        rates, query = _model()
        fp = OperatorFootprint(rates)
        left, right = frozenset({"A"}), frozenset({"B"})
        load = fp.join_load(query, left, right)
        in_left = rates.rate_for(query, left)
        in_right = rates.rate_for(query, right)
        out = rates.rate_for(query, left | right)
        assert load.cpu == pytest.approx(in_left + in_right)
        assert load.memory == pytest.approx((in_left + in_right) * query.window)
        assert load.bandwidth == pytest.approx(in_left + in_right + out)

    def test_bytes_per_tuple_scales_memory_only(self, monkeypatch):
        rates, query = _model()
        one = OperatorFootprint(rates).join_load(
            query, frozenset({"A"}), frozenset({"B"})
        )
        monkeypatch.setattr(footprint, "BYTES_PER_TUPLE", 4.0)
        four = OperatorFootprint(rates).join_load(
            query, frozenset({"A"}), frozenset({"B"})
        )
        assert four.memory == pytest.approx(4.0 * one.memory)
        assert four.cpu == one.cpu
        assert four.bandwidth == one.bandwidth

    def test_tracks_rate_model_updates(self):
        rates, query = _model()
        fp = OperatorFootprint(rates)
        before = fp.join_load(query, frozenset({"A"}), frozenset({"B"}))
        updated = dict(rates.streams)
        updated["A"] = StreamSpec("A", 0, 100.0)
        rates.update_streams(updated)
        after = fp.join_load(query, frozenset({"A"}), frozenset({"B"}))
        assert after.cpu > before.cpu


class TestPlanLoads:
    def test_only_join_operators_carry_load(self):
        rates, query = _model()
        fp = OperatorFootprint(rates)
        a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
        tree = Join(Join(a, b), c)
        loads = plan_loads(fp, query, tree)
        assert set(loads) == set(tree.joins())
        assert len(loads) == 2
        assert all(load.cpu > 0 for load in loads.values())
