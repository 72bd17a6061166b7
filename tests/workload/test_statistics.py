"""Tests for the statistics-gathering substrate."""

import numpy as np
import pytest

import repro
from repro.core.cost import RateModel, deployment_cost
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from repro.workload.statistics import (
    MIN_SELECTIVITY,
    StatisticsCollector,
    estimate_statistics,
    simulate_observation,
)


@pytest.fixture()
def true_stats():
    streams = {
        "A": StreamSpec("A", 0, 80.0),
        "B": StreamSpec("B", 3, 50.0),
        "C": StreamSpec("C", 6, 120.0),
    }
    selectivities = {
        frozenset(("A", "B")): 0.02,
        frozenset(("B", "C")): 0.01,
    }
    return streams, selectivities


class TestCollector:
    def test_rate_estimation(self):
        collector = StatisticsCollector({"A": 0})
        for _ in range(500):
            collector.observe("A")
        est = collector.estimate(observation_time=10.0)
        assert est.streams["A"].rate == pytest.approx(50.0)
        assert est.streams["A"].source == 0

    def test_unknown_stream_rejected(self):
        collector = StatisticsCollector({"A": 0})
        with pytest.raises(KeyError):
            collector.observe("Z")

    def test_unobserved_stream_rejected_at_estimate(self):
        collector = StatisticsCollector({"A": 0, "B": 1})
        collector.observe("A")
        with pytest.raises(ValueError, match="never observed"):
            collector.estimate(10.0)

    def test_invalid_window(self):
        collector = StatisticsCollector({"A": 0})
        collector.observe("A")
        with pytest.raises(ValueError):
            collector.estimate(0.0)

    def test_selectivity_from_histograms(self):
        """Deterministic histograms give an exact collision probability."""
        collector = StatisticsCollector({"A": 0, "B": 1})
        # A: values 0, 1 equally; B: always 0 => collision prob = 0.5
        for v in (0, 1, 0, 1):
            collector.observe("A", {"k": v})
        for _ in range(4):
            collector.observe("B", {"k": 0})
        est = collector.estimate(1.0)
        assert est.selectivities[frozenset("AB")] == pytest.approx(0.5)

    def test_no_collision_uses_floor(self):
        collector = StatisticsCollector({"A": 0, "B": 1})
        collector.observe("A", {"k": 1})
        collector.observe("B", {"k": 2})
        est = collector.estimate(1.0)
        assert est.selectivities[frozenset("AB")] == MIN_SELECTIVITY

    def test_unshared_attribute_gives_no_estimate(self):
        collector = StatisticsCollector({"A": 0, "B": 1})
        collector.observe("A", {"x": 1})
        collector.observe("B", {"y": 1})
        est = collector.estimate(1.0)
        assert frozenset("AB") not in est.selectivities  # planners default to 1.0


class TestSimulatedObservation:
    def test_estimates_close_to_truth(self, true_stats):
        streams, selectivities = true_stats
        est = estimate_statistics(streams, selectivities, observation_time=100.0, seed=1)
        for name, spec in streams.items():
            assert est.streams[name].rate == pytest.approx(spec.rate, rel=0.15)
        for pair, sel in selectivities.items():
            assert est.selectivities[pair] == pytest.approx(sel, rel=0.5)

    def test_longer_observation_reduces_rate_error(self, true_stats):
        streams, selectivities = true_stats
        errors = {}
        for time in (2.0, 200.0):
            errs = []
            for seed in range(8):
                est = estimate_statistics(streams, selectivities, time, seed=seed)
                errs.extend(
                    abs(est.streams[n].rate - s.rate) / s.rate for n, s in streams.items()
                )
            errors[time] = float(np.mean(errs))
        assert errors[200.0] < errors[2.0]

    def test_reproducible(self, true_stats):
        streams, selectivities = true_stats
        a = estimate_statistics(streams, selectivities, 10.0, seed=3)
        b = estimate_statistics(streams, selectivities, 10.0, seed=3)
        assert a.streams == b.streams
        assert a.selectivities == b.selectivities

    def test_invalid_window(self, true_stats):
        streams, selectivities = true_stats
        with pytest.raises(ValueError):
            simulate_observation(streams, selectivities, observation_time=-1.0)


class TestPlanningWithEstimates:
    def test_estimated_stats_yield_near_true_cost(self, true_stats):
        """Planning with estimated statistics should land within a few
        percent of planning with the truth, evaluated at true rates."""
        streams, selectivities = true_stats
        net = repro.transit_stub_by_size(32, seed=121)

        def query_from(sel_lookup, name):
            return Query(
                name, ["A", "B", "C"], sink=20,
                predicates=[
                    JoinPredicate("A", "B", sel_lookup(frozenset(("A", "B")))),
                    JoinPredicate("B", "C", sel_lookup(frozenset(("B", "C")))),
                ],
            )

        true_rates = repro.RateModel(streams)
        true_query = query_from(lambda p: selectivities[p], "q_true")
        true_plan = repro.OptimalPlanner(net, true_rates).plan(true_query)
        best = deployment_cost(true_plan, net.cost_matrix(), true_rates)

        est = estimate_statistics(streams, selectivities, observation_time=50.0, seed=5)
        est_rates = RateModel(est.streams)
        est_query = query_from(lambda p: est.selectivities[p], "q_est")
        est_plan = repro.OptimalPlanner(net, est_rates).plan(est_query)
        # evaluate the estimated plan under TRUE statistics: same plan
        # tree/placement, true query semantics
        realized = repro.Deployment(
            query=true_query,
            plan=est_plan.plan,
            placement={
                node: est_plan.placement[node] for node in est_plan.plan.subtrees()
            },
        )
        achieved = deployment_cost(realized, net.cost_matrix(), true_rates)
        assert achieved <= best * 1.25
