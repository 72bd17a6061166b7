"""Tests for the SQL parser on the paper's query style."""

import pytest

from repro.query.sql import (
    DEFAULT_FILTER_SELECTIVITY,
    DEFAULT_JOIN_SELECTIVITY,
    SqlError,
    parse_query,
)

Q1 = """
SELECT FLIGHTS.STATUS, WEATHER.FORECAST, CHECK-INS.STATUS
FROM FLIGHTS, WEATHER, CHECK-INS
WHERE FLIGHTS.DEPARTING = 'ATLANTA'
  AND FLIGHTS.DESTN = WEATHER.CITY
  AND FLIGHTS.NUM = CHECK-INS.FLNUM
  AND FLIGHTS.DP-TIME - CURRENT_TIME < 12:00
"""

Q2 = """
SELECT FLIGHTS.STATUS, CHECK-INS.STATUS
FROM FLIGHTS, CHECK-INS
WHERE FLIGHTS.DEPARTING = 'ATLANTA'
  AND FLIGHTS.NUM = CHECK-INS.FLNUM
  AND FLIGHTS.DP-TIME - CURRENT_TIME < 12:00
"""


class TestPaperQueries:
    def test_q1_structure(self):
        q = parse_query(Q1, name="Q1", sink=9)
        assert set(q.sources) == {"FLIGHTS", "WEATHER", "CHECK-INS"}
        assert q.sink == 9
        assert len(q.predicates) == 2
        assert len(q.filters) == 2
        assert all(f.stream == "FLIGHTS" for f in q.filters)
        assert q.is_join_connected()

    def test_q2_structure(self):
        q = parse_query(Q2, name="Q2", sink=4)
        assert set(q.sources) == {"FLIGHTS", "CHECK-INS"}
        assert len(q.predicates) == 1
        pred = q.predicates[0]
        assert pred.streams == frozenset({"FLIGHTS", "CHECK-INS"})

    def test_q1_q2_share_flights_checkins_signature(self):
        """The motivating reuse: Q1's FLIGHTS x CHECK-INS sub-view equals Q2's."""
        q1 = parse_query(Q1, name="Q1", sink=9)
        q2 = parse_query(Q2, name="Q2", sink=4)
        sub = {"FLIGHTS", "CHECK-INS"}
        assert q1.view_signature(sub) == q2.view_signature(sub)

    def test_projection_recorded(self):
        q = parse_query(Q2, name="Q2", sink=0)
        assert q.projection == ("FLIGHTS.STATUS", "CHECK-INS.STATUS")


class TestSelectivities:
    def test_defaults(self):
        q = parse_query("SELECT A.x FROM A, B WHERE A.k = B.k AND A.v > 5", "q", 0)
        assert q.predicates[0].selectivity == DEFAULT_JOIN_SELECTIVITY
        assert q.filters[0].selectivity == DEFAULT_FILTER_SELECTIVITY

    def test_explicit_join_selectivity(self):
        q = parse_query(
            "SELECT A.x FROM A, B WHERE A.k = B.k",
            "q",
            0,
            join_selectivities={frozenset({"A", "B"}): 0.42},
        )
        assert q.predicates[0].selectivity == 0.42

    def test_explicit_filter_selectivity(self):
        q = parse_query(
            "SELECT A.x FROM A WHERE A.v > 5",
            "q",
            0,
            filter_selectivities={"A.v > 5": 0.13},
        )
        assert q.filters[0].selectivity == 0.13


class TestParsing:
    def test_single_stream_no_where(self):
        q = parse_query("SELECT A.x FROM A", "q", 2)
        assert q.sources == ("A",)
        assert q.predicates == ()

    def test_case_insensitive_keywords(self):
        q = parse_query("select A.x from A, B where A.k = B.k", "q", 0)
        assert len(q.predicates) == 1

    def test_join_attrs_recorded(self):
        q = parse_query("SELECT A.x FROM A, B WHERE A.key1 = B.key2", "q", 0)
        p = q.predicates[0]
        assert {p.left_attr, p.right_attr} == {"key1", "key2"}

    def test_quoted_literal_with_and_inside(self):
        q = parse_query(
            "SELECT A.x FROM A, B WHERE A.city = 'LAND AND SEA' AND A.k = B.k",
            "q",
            0,
        )
        assert len(q.filters) == 1
        assert "LAND AND SEA" in q.filters[0].predicate

    def test_multiple_filters_same_stream(self):
        q = parse_query(
            "SELECT A.x FROM A WHERE A.v > 5 AND A.w < 3",
            "q",
            0,
        )
        assert len(q.filters) == 2


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(SqlError, match="SELECT"):
            parse_query("SELECT A.x", "q", 0)

    def test_empty_select(self):
        with pytest.raises(SqlError, match="SELECT"):
            parse_query("SELECT  FROM A", "q", 0)

    def test_bad_stream_name(self):
        with pytest.raises(SqlError, match="invalid stream"):
            parse_query("SELECT A.x FROM A, 1BAD", "q", 0)

    def test_join_with_unknown_stream(self):
        with pytest.raises(SqlError, match="unknown stream"):
            parse_query("SELECT A.x FROM A WHERE A.k = B.k", "q", 0)

    def test_filter_on_unknown_stream(self):
        with pytest.raises(SqlError, match="unknown stream"):
            parse_query("SELECT A.x FROM A, B WHERE A.k = B.k AND C.v > 5", "q", 0)

    def test_condition_without_stream(self):
        with pytest.raises(SqlError, match="references no stream"):
            parse_query("SELECT A.x FROM A WHERE 1 = 1", "q", 0)

    def test_multi_stream_non_equijoin(self):
        with pytest.raises(SqlError, match="not supported"):
            parse_query("SELECT A.x FROM A, B WHERE A.v + B.w > 5 AND A.k = B.k", "q", 0)

    def test_self_join_condition(self):
        with pytest.raises(SqlError, match="self-join"):
            parse_query("SELECT A.x FROM A WHERE A.j = A.k", "q", 0)

    def test_cross_product_rejected_by_query_model(self):
        with pytest.raises(ValueError, match="disconnected"):
            parse_query("SELECT A.x FROM A, B", "q", 0)


class TestWindowClause:
    def test_window_clause_parsed(self):
        q = parse_query(
            "SELECT A.x FROM A, B WHERE A.k = B.k WINDOW 2.5", "q", 0
        )
        assert q.window == 2.5
        assert len(q.predicates) == 1

    def test_window_without_where(self):
        q = parse_query("SELECT A.x FROM A WINDOW 1.5", "q", 0)
        assert q.window == 1.5
        assert q.sources == ("A",)

    def test_window_case_insensitive(self):
        q = parse_query("SELECT A.x FROM A, B WHERE A.k = B.k window 3", "q", 0)
        assert q.window == 3.0

    def test_nonpositive_window_rejected(self):
        with pytest.raises(SqlError, match="positive"):
            parse_query("SELECT A.x FROM A WINDOW 0", "q", 0)

    def test_no_window_clause_uses_default(self):
        from repro.query.query import DEFAULT_WINDOW

        q = parse_query("SELECT A.x FROM A, B WHERE A.k = B.k", "q", 0)
        assert q.window == DEFAULT_WINDOW
