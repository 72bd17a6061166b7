"""Tests for StreamSpec, Filter, JoinPredicate, Query and ViewSignature."""

import pytest

from repro.query.query import JoinPredicate, Query, ViewSignature
from repro.query.stream import Filter, StreamSpec


class TestStreamSpec:
    def test_valid(self):
        s = StreamSpec("FLIGHTS", 3, 120.0)
        assert s.name == "FLIGHTS"

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            StreamSpec("", 0, 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            StreamSpec("X", 0, 0.0)

    def test_rejects_negative_source(self):
        with pytest.raises(ValueError):
            StreamSpec("X", -1, 1.0)


class TestFilter:
    def test_valid(self):
        f = Filter("A", "A.x > 5", 0.3)
        assert f.selectivity == 0.3

    def test_rejects_selectivity_out_of_range(self):
        with pytest.raises(ValueError):
            Filter("A", "p", 0.0)
        with pytest.raises(ValueError):
            Filter("A", "p", 1.5)

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError):
            Filter("", "p", 0.5)


class TestJoinPredicate:
    def test_normalizes_order(self):
        p = JoinPredicate("ZED", "ALPHA", 0.1, left_attr="z", right_attr="a")
        assert (p.left, p.right) == ("ALPHA", "ZED")
        assert (p.left_attr, p.right_attr) == ("a", "z")

    def test_equality_order_insensitive(self):
        assert JoinPredicate("A", "B", 0.1) == JoinPredicate("B", "A", 0.1)
        assert hash(JoinPredicate("A", "B", 0.1)) == hash(JoinPredicate("B", "A", 0.1))

    def test_rejects_self_join(self):
        with pytest.raises(ValueError):
            JoinPredicate("A", "A", 0.1)

    def test_rejects_bad_selectivity(self):
        with pytest.raises(ValueError):
            JoinPredicate("A", "B", 0.0)

    def test_streams_property(self):
        assert JoinPredicate("A", "B", 0.5).streams == frozenset({"A", "B"})


class TestQueryValidation:
    def test_minimal_single_source(self):
        q = Query("q", ["A"], sink=0)
        assert q.sources == ("A",)

    def test_duplicate_source_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            Query("q", ["A", "A"], sink=0)

    def test_unknown_predicate_stream_rejected(self):
        with pytest.raises(ValueError, match="not in FROM"):
            Query("q", ["A", "B"], sink=0, predicates=[JoinPredicate("A", "C", 0.1)])

    def test_duplicate_predicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate predicate"):
            Query(
                "q",
                ["A", "B"],
                sink=0,
                predicates=[JoinPredicate("A", "B", 0.1), JoinPredicate("B", "A", 0.2)],
            )

    def test_unknown_filter_stream_rejected(self):
        with pytest.raises(ValueError, match="filter"):
            Query("q", ["A"], sink=0, filters=[Filter("B", "p", 0.5)])

    def test_disconnected_join_graph_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            Query("q", ["A", "B", "C"], sink=0, predicates=[JoinPredicate("A", "B", 0.1)])

    def test_disconnected_allowed_with_flag(self):
        q = Query(
            "q",
            ["A", "B", "C"],
            sink=0,
            predicates=[JoinPredicate("A", "B", 0.1)],
            allow_cross_products=True,
        )
        assert not q.is_join_connected()

    def test_negative_sink_rejected(self):
        with pytest.raises(ValueError, match="sink"):
            Query("q", ["A"], sink=-1)


class TestQueryHelpers:
    def _chain(self):
        return Query(
            "q",
            ["A", "B", "C", "D"],
            sink=0,
            predicates=[
                JoinPredicate("A", "B", 0.1),
                JoinPredicate("B", "C", 0.2),
                JoinPredicate("C", "D", 0.3),
            ],
        )

    def test_subset_connectivity(self):
        q = self._chain()
        assert q.is_join_connected(frozenset({"A", "B", "C"}))
        assert not q.is_join_connected(frozenset({"A", "C"}))
        assert q.is_join_connected(frozenset({"A"}))

    def test_filters_on(self):
        q = Query(
            "q",
            ["A", "B"],
            sink=0,
            predicates=[JoinPredicate("A", "B", 0.1)],
            filters=[Filter("A", "p1", 0.5), Filter("A", "p2", 0.4)],
        )
        assert len(q.filters_on("A")) == 2
        assert q.filters_on("B") == ()


class TestViewSignature:
    def _query(self):
        return Query(
            "q",
            ["A", "B", "C"],
            sink=0,
            predicates=[JoinPredicate("A", "B", 0.1), JoinPredicate("B", "C", 0.2)],
            filters=[Filter("A", "A.x > 1", 0.5)],
        )

    def test_full_signature(self):
        q = self._query()
        sig = q.view_signature()
        assert sig.sources == frozenset({"A", "B", "C"})
        assert len(sig.predicates) == 2
        assert len(sig.filters) == 1

    def test_subset_restricts_predicates_and_filters(self):
        q = self._query()
        sig = q.view_signature({"B", "C"})
        assert sig.predicates == frozenset({JoinPredicate("B", "C", 0.2)})
        assert sig.filters == frozenset()

    def test_subset_outside_sources_rejected(self):
        with pytest.raises(ValueError):
            self._query().view_signature({"A", "Z"})

    def test_signature_equality_is_reuse_condition(self):
        """Two queries restricting to the same sub-view share signatures."""
        q1 = self._query()
        q2 = Query(
            "q2",
            ["B", "C", "D"],
            sink=5,
            predicates=[JoinPredicate("B", "C", 0.2), JoinPredicate("C", "D", 0.9)],
        )
        assert q1.view_signature({"B", "C"}) == q2.view_signature({"B", "C"})

    def test_signature_differs_on_selectivity(self):
        q1 = self._query()
        q2 = Query(
            "q2",
            ["B", "C"],
            sink=5,
            predicates=[JoinPredicate("B", "C", 0.3)],
        )
        assert q1.view_signature({"B", "C"}) != q2.view_signature({"B", "C"})

    def test_signature_differs_on_filters(self):
        q1 = self._query()
        sig_with = q1.view_signature({"A", "B"})
        q3 = Query(
            "q3",
            ["A", "B"],
            sink=0,
            predicates=[JoinPredicate("A", "B", 0.1)],
        )
        assert q3.view_signature({"A", "B"}) != sig_with

    def test_invalid_signature_construction(self):
        with pytest.raises(ValueError):
            ViewSignature(frozenset(), frozenset(), frozenset())
        with pytest.raises(ValueError):
            ViewSignature(
                frozenset({"A"}),
                frozenset({JoinPredicate("A", "B", 0.1)}),
                frozenset(),
            )
        with pytest.raises(ValueError):
            ViewSignature(
                frozenset({"A"}),
                frozenset(),
                frozenset({Filter("B", "p", 0.5)}),
            )

    def test_is_base_and_label(self):
        sig = ViewSignature(frozenset({"A"}), frozenset(), frozenset())
        assert sig.label() == "A"
        sig2 = ViewSignature(frozenset({"B", "A"}), frozenset(), frozenset())
        assert sig2.label() == "A*B"
