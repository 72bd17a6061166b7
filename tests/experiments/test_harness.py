"""Tests for the experiment harness and reporting utilities."""

import numpy as np
import pytest

from repro.experiments.harness import average_curves, cumulative_costs, run_incremental
from repro.experiments import reporting
from repro.experiments.reporting import format_series_table, format_summary
from repro.workload import WorkloadParams, build_world, world_seeds


@pytest.fixture(scope="module")
def env():
    params = WorkloadParams(num_streams=6, num_queries=5, joins_per_query=(2, 3))
    return build_world(32, params, **world_seeds(0, (4, 8)))


class TestBuildEnv:
    def test_structure(self, env):
        assert env.network.num_nodes == 32
        assert len(env.workload) == 5
        assert set(env.hierarchies) == {4, 8}
        env.hierarchy(4).validate(full_coverage=True)

    def test_reproducible(self):
        params = WorkloadParams(num_streams=6, num_queries=3)
        a = build_world(32, params, **world_seeds(7))
        b = build_world(32, params, **world_seeds(7))
        assert [q.sources for q in a.workload] == [q.sources for q in b.workload]
        assert a.network.num_links == b.network.num_links

    def test_fresh_state_empty(self, env):
        state = env.fresh_state()
        assert state.total_cost() == 0.0
        assert state.num_operators == 0

    def test_optimizer_factory(self, env):
        td = env.optimizer("top-down", max_cs=4)
        assert td.name == "top-down"
        assert td.hierarchy is env.hierarchy(4)
        opt = env.optimizer("optimal")
        assert opt.name == "optimal"

    def test_optimizer_defaults_to_first_hierarchy(self, env):
        td = env.optimizer("top-down")
        assert td.hierarchy in env.hierarchies.values()


class TestRunIncremental:
    def test_curve_monotone_nondecreasing(self, env):
        optimizer = env.optimizer("top-down", max_cs=8)
        state = env.fresh_state()
        curve, deployments = run_incremental(optimizer, env.workload, state)
        assert len(curve) == len(env.workload)
        assert len(deployments) == len(env.workload)
        assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:]))
        assert curve[-1] == pytest.approx(state.total_cost())

    def test_cumulative_costs_helper(self, env):
        curve = cumulative_costs(env, "top-down", max_cs=8, reuse=True)
        assert len(curve) == len(env.workload)
        assert curve[-1] > 0


class TestAverageCurves:
    def test_pointwise_mean(self):
        assert average_curves([[1.0, 2.0], [3.0, 4.0]]) == [2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_curves([])


class TestReporting:
    def _result(self, n=5):
        from repro.experiments.figures import FigureResult

        return FigureResult(
            figure="figX",
            title="test",
            x_label="x",
            x=list(range(n)),
            series={"a": [float(i) for i in range(n)], "b": [2.0 * i for i in range(n)]},
            summary={"metric": 12.5},
            expectations={"metric": 10.0},
        )

    def test_table_contains_all_series(self):
        table = format_series_table(self._result())
        assert "a" in table and "b" in table
        assert table.count("\n") >= 6

    def test_long_axis_subsampled(self, monkeypatch):
        monkeypatch.setattr(reporting, "MAX_TABLE_ROWS", 8)
        table = format_series_table(self._result(100))
        lines = table.splitlines()
        assert len(lines) <= 12
        assert lines[-1].startswith("99")  # last point kept

    def test_summary_shows_paper_value(self):
        text = format_summary(self._result())
        assert "12.5" in text and "10" in text

    def test_nan_rendered_as_dash(self):
        from repro.experiments.figures import FigureResult

        r = FigureResult(
            figure="f", title="t", x_label="x", x=[1],
            series={"s": [float("nan")]},
            summary={"v": float("nan")},
        )
        assert "-" in format_series_table(r)


class TestFigureResultJson:
    def test_round_trip(self):
        from repro.experiments.figures import FigureResult

        original = FigureResult(
            figure="figX",
            title="t",
            x_label="x",
            x=[1, 2, 3],
            series={"a": [1.0, 2.0, 3.0]},
            summary={"m": 4.5},
            expectations={"m": 5.0},
        )
        restored = FigureResult.from_json(original.to_json())
        assert restored.figure == original.figure
        assert restored.series == original.series
        assert restored.summary == original.summary
        assert restored.expectations == original.expectations

    def test_json_handles_nan(self):
        from repro.experiments.figures import FigureResult

        r = FigureResult(
            figure="f", title="t", x_label="x", x=[1],
            series={"s": [float("nan")]},
        )
        restored = FigureResult.from_json(r.to_json())
        assert restored.series["s"][0] != restored.series["s"][0]  # NaN
