"""Tests for the tuple-level data plane: the rate model must hold for real."""

import math

import numpy as np
import pytest

import repro
from repro.core.cost import RateModel
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import Filter, StreamSpec
from repro.runtime import dataplane
from repro.runtime.dataplane import run_dataplane


def _two_way_setup(sel=0.01, rate_a=60.0, rate_b=60.0, filters=()):
    net = repro.transit_stub_by_size(24, seed=81)
    streams = {
        "A": StreamSpec("A", 0, rate_a),
        "B": StreamSpec("B", 5, rate_b),
    }
    rates = RateModel(streams)
    q = Query(
        "q", ["A", "B"], sink=10,
        predicates=[JoinPredicate("A", "B", sel)],
        filters=list(filters),
    )
    a, b = Leaf.of("A"), Leaf.of("B")
    join = Join(a, b)
    d = repro.Deployment(query=q, plan=join, placement={a: 0, b: 5, join: 7})
    return net, rates, q, d


class TestTwoWayJoin:
    def test_source_rates_match_specs(self):
        net, rates, q, d = _two_way_setup()
        report = run_dataplane(net, d, rates, duration=30.0, seed=1)
        assert report.measured_rates["A"] == pytest.approx(60.0, rel=0.2)
        assert report.measured_rates["B"] == pytest.approx(60.0, rel=0.2)

    def test_join_rate_matches_model(self):
        """Measured join output ~= sigma * r_A * r_B (Poisson noise aside)."""
        net, rates, q, d = _two_way_setup(sel=0.01)
        report = run_dataplane(net, d, rates, duration=60.0, seed=2)
        predicted = report.predicted_rates["A*B"]
        measured = report.measured_rates["A*B"]
        assert predicted == pytest.approx(0.01 * 60 * 60)
        assert measured == pytest.approx(predicted, rel=0.30)

    def test_sink_receives_join_output(self):
        net, rates, q, d = _two_way_setup()
        report = run_dataplane(net, d, rates, duration=30.0, seed=3)
        join_emitted = next(
            c.emitted for c in report.components if c.label.startswith("join")
        )
        assert report.sink_tuples == join_emitted

    def test_latency_reflects_network_delays(self):
        net, rates, q, d = _two_way_setup()
        report = run_dataplane(net, d, rates, duration=30.0, seed=4)
        if report.sink_tuples:
            # at least the source->join->sink propagation, at most the
            # window plus a few propagation delays
            assert 0 < report.mean_latency < 1.5

    def test_filters_thin_the_stream(self):
        net, rates, q, d = _two_way_setup(filters=[Filter("A", "A.x > 1", 0.25)])
        filtered = run_dataplane(net, d, rates, duration=40.0, seed=5)
        assert filtered.measured_rates["A"] == pytest.approx(60 * 0.25, rel=0.35)
        assert filtered.predicted_rates["A"] == pytest.approx(60 * 0.25)
        source_a = next(c for c in filtered.components if c.label == "source A")
        assert source_a.emitted < source_a.received  # filter dropped tuples

    def test_rate_scale(self, monkeypatch):
        monkeypatch.setattr(dataplane, "RATE_SCALE", 0.5)
        net, rates, q, d = _two_way_setup()
        report = run_dataplane(net, d, rates, duration=30.0, seed=6)
        assert report.measured_rates["A"] == pytest.approx(30.0, rel=0.3)

    def test_reused_view_rejected(self):
        net, rates, q, _ = _two_way_setup()
        leaf = Leaf.of("A", "B")
        reuse_plan = repro.Deployment(query=q, plan=leaf, placement={leaf: 7})
        with pytest.raises(ValueError, match="reused views"):
            run_dataplane(net, reuse_plan, rates)


class TestThreeWayJoin:
    def test_multi_level_rates_match_model(self):
        """(A x B) x C measured rates track the analytic model level by
        level (the multiplicative selectivity composition)."""
        net = repro.transit_stub_by_size(24, seed=91)
        streams = {
            "A": StreamSpec("A", 0, 50.0),
            "B": StreamSpec("B", 3, 50.0),
            "C": StreamSpec("C", 6, 40.0),
        }
        rates = RateModel(streams)
        q = Query(
            "q3", ["A", "B", "C"], sink=12,
            predicates=[JoinPredicate("A", "B", 0.02), JoinPredicate("B", "C", 0.02)],
        )
        a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
        inner = Join(a, b)
        outer = Join(inner, c)
        d = repro.Deployment(
            query=q, plan=outer,
            placement={a: 0, b: 3, c: 6, inner: 4, outer: 8},
        )
        report = run_dataplane(net, d, rates, duration=80.0, seed=7)
        for label in ("A*B", "A*B*C"):
            predicted = report.predicted_rates[label]
            measured = report.measured_rates[label]
            assert measured == pytest.approx(predicted, rel=0.5), label

    def test_optimal_planner_deployment_runs(self):
        """A planner-produced deployment executes on the data plane."""
        net = repro.transit_stub_by_size(24, seed=92)
        streams = {
            "A": StreamSpec("A", 1, 40.0),
            "B": StreamSpec("B", 9, 40.0),
            "C": StreamSpec("C", 17, 40.0),
        }
        rates = RateModel(streams)
        q = Query(
            "qp", ["A", "B", "C"], sink=20,
            predicates=[JoinPredicate("A", "B", 0.02), JoinPredicate("B", "C", 0.02)],
        )
        d = repro.OptimalPlanner(net, rates).plan(q)
        report = run_dataplane(net, d, rates, duration=40.0, seed=8)
        assert report.sink_tuples >= 0
        assert set(report.measured_rates) == set(report.predicted_rates)
