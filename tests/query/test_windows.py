"""Tests for sliding-window semantics across the stack."""

import numpy as np
import pytest

import repro
from repro.core.containment import contains
from repro.core.cost import RateModel
from repro.query.query import DEFAULT_WINDOW, JoinPredicate, Query, ViewSignature
from repro.query.stream import StreamSpec
from repro.runtime.dataplane import run_dataplane


def _streams():
    return {
        "A": StreamSpec("A", 0, 60.0),
        "B": StreamSpec("B", 5, 60.0),
    }


def _query(window, name="q", sel=0.01, sink=10):
    return Query(
        name, ["A", "B"], sink=sink,
        predicates=[JoinPredicate("A", "B", sel)],
        window=window,
    )


class TestQueryWindow:
    def test_default_window(self):
        assert _query(DEFAULT_WINDOW).window == DEFAULT_WINDOW

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            _query(0.0)

    def test_signature_carries_window(self):
        assert _query(2.0).view_signature().window == 2.0

    def test_single_stream_signature_window_normalized(self):
        sig = _query(2.0).view_signature({"A"})
        assert sig.window == DEFAULT_WINDOW

    def test_different_windows_different_signatures(self):
        a = _query(0.5, "qa").view_signature()
        b = _query(1.0, "qb").view_signature()
        assert a != b

    def test_viewsignature_validation(self):
        with pytest.raises(ValueError, match="window"):
            ViewSignature(frozenset({"A", "B"}), frozenset(), frozenset(), window=-1.0)


class TestWindowedRates:
    def test_default_window_classical_rate(self):
        rates = RateModel(_streams())
        q = _query(DEFAULT_WINDOW)
        assert rates.rate_for(q, {"A", "B"}) == pytest.approx(0.01 * 60 * 60)

    def test_rate_scales_with_window(self):
        rates = RateModel(_streams())
        narrow = rates.rate_for(_query(0.25, "qn"), {"A", "B"})
        wide = rates.rate_for(_query(1.0, "qw"), {"A", "B"})
        assert wide == pytest.approx(4 * narrow)

    def test_multiway_window_exponent(self):
        streams = dict(_streams())
        streams["C"] = StreamSpec("C", 8, 60.0)
        rates = RateModel(streams)
        q = Query(
            "q3", ["A", "B", "C"], sink=10,
            predicates=[JoinPredicate("A", "B", 0.01), JoinPredicate("B", "C", 0.01)],
            window=1.0,
        )
        # two joins => (2W)^2 = 4x the classical rate
        classical = 0.01 * 0.01 * 60 * 60 * 60
        assert rates.rate_for(q, frozenset(q.sources)) == pytest.approx(4 * classical)

    def test_shape_invariance_with_windows(self):
        from repro.core.enumeration import all_join_trees

        streams = dict(_streams())
        streams["C"] = StreamSpec("C", 40.0 if False else 40.0, 40.0)
        streams["C"] = StreamSpec("C", 8, 40.0)
        rates = RateModel(streams)
        q = Query(
            "q3", ["A", "B", "C"], sink=10,
            predicates=[JoinPredicate("A", "B", 0.01), JoinPredicate("B", "C", 0.02)],
            window=0.8,
        )
        roots = {
            rates.rate_for(q, t.sources)
            for t in all_join_trees([frozenset((s,)) for s in q.sources])
        }
        assert len(roots) == 1


class TestWindowReuse:
    def test_same_window_reusable(self):
        a = _query(1.0, "qa").view_signature()
        b = _query(1.0, "qb", sink=3).view_signature()
        assert a == b

    def test_wider_window_contains_narrower(self):
        wide = _query(1.0, "qw").view_signature()
        narrow = _query(0.5, "qn").view_signature()
        assert contains(wide, narrow)
        assert not contains(narrow, wide)


class TestWindowedDataPlane:
    def test_measured_rate_tracks_window(self):
        """Doubling the window roughly doubles the measured join rate,
        matching the (2W)-scaled model prediction."""
        net = repro.transit_stub_by_size(16, seed=111)
        streams = {"A": StreamSpec("A", 0, 40.0), "B": StreamSpec("B", 3, 40.0)}
        rates = RateModel(streams)
        measured = {}
        for window in (0.5, 1.0):
            q = _query(window, f"q_{window}", sel=0.02, sink=10)
            a, b = repro.Leaf.of("A"), repro.Leaf.of("B")
            join = repro.Join(a, b)
            d = repro.Deployment(query=q, plan=join, placement={a: 0, b: 3, join: 6})
            report = run_dataplane(net, d, rates, duration=60.0, seed=9)
            predicted = report.predicted_rates["A*B"]
            assert report.measured_rates["A*B"] == pytest.approx(predicted, rel=0.35)
            measured[window] = report.measured_rates["A*B"]
        assert measured[1.0] == pytest.approx(2 * measured[0.5], rel=0.5)


class TestWorkloadWindows:
    def test_window_range_generates_varied_windows(self):
        net = repro.transit_stub_by_size(32, seed=112)
        w = repro.generate_workload(
            net,
            repro.WorkloadParams(num_queries=10, window_range=(0.2, 2.0)),
            seed=1,
        )
        windows = {q.window for q in w}
        assert len(windows) > 1
        assert all(0.2 <= q.window <= 2.0 for q in w)

    def test_invalid_window_range(self):
        with pytest.raises(ValueError, match="window_range"):
            repro.WorkloadParams(window_range=(0.0, 1.0))

    def test_sql_window_passthrough(self):
        q = repro.parse_query("SELECT A.x FROM A, B WHERE A.k = B.k WINDOW 1.5", "q", 0)
        assert q.window == 1.5
