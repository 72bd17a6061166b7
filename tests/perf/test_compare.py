"""Regression comparator: baselines, thresholds, blocking vs advisory."""

import pytest

from repro.perf.compare import compare_trajectory


def entry(ops, wall=None, case="plan"):
    data = {"ops": dict(ops)}
    if wall is not None:
        data["wall_seconds"] = {"median": wall}
    return {"label": "", "cases": {case: data}}


class TestCompare:
    def test_empty_trajectory_raises(self):
        with pytest.raises(ValueError, match="no entries"):
            compare_trajectory({"entries": []})

    def test_single_entry_is_trivially_clean(self):
        report = compare_trajectory({"entries": [entry({"messages": 100})]})
        assert report.ok
        assert report.baseline_entries == 1
        (finding,) = report.findings
        assert finding.ratio == 1.0
        assert not finding.regressed

    def test_flat_history_is_clean(self):
        doc = {"entries": [entry({"messages": 100}) for _ in range(4)]}
        report = compare_trajectory(doc)
        assert report.ok
        assert all(f.ratio == 1.0 for f in report.findings)

    def test_op_count_regression_is_blocking(self):
        doc = {"entries": [entry({"messages": 100}), entry({"messages": 130})]}
        report = compare_trajectory(doc, op_threshold=0.25)
        assert not report.ok
        (finding,) = report.blocking_regressions
        assert finding.metric == "messages"
        assert finding.ratio == pytest.approx(1.3)

    def test_increase_below_threshold_passes(self):
        doc = {"entries": [entry({"messages": 100}), entry({"messages": 120})]}
        assert compare_trajectory(doc, op_threshold=0.25).ok

    def test_wall_clock_regression_is_advisory_only(self):
        doc = {
            "entries": [
                entry({"messages": 100}, wall=1.0),
                entry({"messages": 100}, wall=10.0),
            ]
        }
        report = compare_trajectory(doc)
        assert report.ok  # wall never blocks
        advisory = [f for f in report.regressions if not f.blocking]
        (finding,) = advisory
        assert finding.metric == "wall_median"
        assert finding.kind == "wall"

    def test_median_of_n_absorbs_one_noisy_run(self):
        doc = {
            "entries": [
                entry({"messages": 100}),
                entry({"messages": 100}),
                entry({"messages": 400}),  # the stray outlier
                entry({"messages": 100}),
                entry({"messages": 110}),
            ]
        }
        # baseline = median(100, 100, 400, 100) = 100; 110 is within +25%
        assert compare_trajectory(doc).ok

    def test_baseline_window_limits_history(self):
        old = [entry({"messages": 10}) for _ in range(5)]
        recent = [entry({"messages": 100}) for _ in range(5)]
        doc = {"entries": old + recent + [entry({"messages": 110})]}
        report = compare_trajectory(doc, baseline_window=5)
        assert report.baseline_entries == 5
        assert report.ok  # the ancient cheap entries aged out

    def test_new_metric_without_history_is_skipped(self):
        doc = {
            "entries": [
                entry({"messages": 100}),
                entry({"messages": 100, "brand_new": 7}),
            ]
        }
        report = compare_trajectory(doc)
        assert [f.metric for f in report.findings] == ["messages"]
        assert report.ok

    def test_vanished_counter_is_blocking(self):
        # A refactor dropped the hook site: the counter is simply gone.
        doc = {
            "entries": [
                entry({"messages": 100, "trees": 30}),
                entry({"messages": 100, "trees": 34}),
                entry({"messages": 100}),
            ]
        }
        report = compare_trajectory(doc)
        assert not report.ok
        (finding,) = report.blocking_regressions
        assert (finding.metric, finding.missing) == ("trees", True)
        assert finding.baseline == 32.0
        assert "! plan.trees" in report.render()
        assert "current=absent" in report.render()
        assert report.to_dict()["findings"][-1]["missing"] is True

    def test_counter_absent_from_some_baseline_entry_is_not_vanished(self):
        # Present only in part of the history: not yet an established hook.
        doc = {
            "entries": [
                entry({"messages": 100}),
                entry({"messages": 100, "trees": 30}),
                entry({"messages": 100}),
            ]
        }
        assert compare_trajectory(doc).ok

    def test_zero_baseline_does_not_divide(self):
        doc = {"entries": [entry({"messages": 0}), entry({"messages": 0})]}
        (finding,) = compare_trajectory(doc).findings
        assert finding.ratio == 1.0

    def test_render_and_to_dict(self):
        doc = {
            "entries": [
                entry({"messages": 100}, wall=1.0),
                entry({"messages": 200}, wall=5.0),
            ]
        }
        report = compare_trajectory(doc)
        text = report.render()
        assert "! plan.messages" in text
        assert "~ plan.wall_median" in text
        assert "REGRESSED (1 blocking)" in text
        payload = report.to_dict()
        assert payload["ok"] is False
        assert len(payload["findings"]) == 2

    def test_render_without_findings(self):
        report = compare_trajectory({"entries": [entry({})]})
        assert report.render() == "no comparable metrics"
