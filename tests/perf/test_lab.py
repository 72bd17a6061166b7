"""PerfLab: case registry, determinism enforcement, trajectory I/O."""

import json

import pytest

from repro.perf.lab import (
    CASES,
    QUICK_CASES,
    PerfLab,
    append_entry,
    load_trajectory,
)


class TestConstruction:
    def test_default_runs_the_quick_subset(self):
        lab = PerfLab()
        assert lab.cases == list(QUICK_CASES)

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown perf cases"):
            PerfLab(cases=["nope"])

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            PerfLab(repeats=0)

    def test_every_registered_case_is_callable(self):
        for name, runner in CASES.items():
            assert callable(runner), name


class TestRunCase:
    def test_entry_shape_and_determinism(self):
        lab = PerfLab(cases=["plan_top_down"], repeats=2)
        result = lab.run_case("plan_top_down")
        assert result["ops"]["trees_enumerated"] > 0
        assert result["ops"]["cost_evaluations"] > 0
        wall = result["wall_seconds"]
        assert len(wall["repeats"]) == 2
        assert wall["min"] <= wall["median"] <= wall["max"]
        # determinism enforcement: a second run produces the same ops
        assert lab.run_case("plan_top_down")["ops"] == result["ops"]

    def test_nondeterministic_case_raises(self, monkeypatch):
        from repro.perf.profiler import OpProfiler

        counter = iter([1, 2])

        def flaky():
            prof = OpProfiler()
            prof.count("ops", next(counter))
            return prof

        monkeypatch.setitem(CASES, "flaky", flaky)
        lab = PerfLab(cases=["flaky"], repeats=2)
        with pytest.raises(RuntimeError, match="non-deterministic"):
            lab.run_case("flaky")

    def test_run_produces_a_trajectory_entry(self):
        lab = PerfLab(cases=["plan_top_down"], repeats=1)
        entry = lab.run(label="unit")
        assert entry["label"] == "unit"
        assert entry["repeats"] == 1
        assert set(entry["cases"]) == {"plan_top_down"}


class TestDurabilityOverhead:
    def test_journal_never_leaks_work_into_the_planner(self):
        """durability_overhead must do the exact planner work of
        service_churn -- the journal only records decisions."""
        lab = PerfLab(
            cases=["service_churn", "durability_overhead"], repeats=1
        )
        churn = lab.run_case("service_churn")["ops"]
        durable = lab.run_case("durability_overhead")["ops"]
        wal_only = {"journal_records", "snapshots", "snapshot_items_encoded"}
        assert {k: v for k, v in durable.items() if k not in wal_only} == churn
        assert durable["journal_records"] > 0
        assert durable["snapshots"] > 0
        assert durable["snapshot_items_encoded"] > 0


class TestResourceOverhead:
    def test_unbounded_layer_never_leaks_work_into_the_planner(self):
        """resource_overhead must do the exact planner work of
        service_churn -- with all capacities infinite the manager
        injects no constraint and gates nothing.  The ledger's own work
        is the one operator pricing per installed join; the constrained
        search's two work counts are carried and read 0; node gauges
        are written when a node's ratio is re-derived, never per call."""
        lab = PerfLab(cases=["service_churn", "resource_overhead"], repeats=1)
        churn = lab.run_case("service_churn")["ops"]
        armed = lab.run_case("resource_overhead")["ops"]
        layer_only = {
            "ledger_ops_priced", "joint_validations", "join_loads_priced",
            "node_gauges_written", "ledger_deployments_examined",
            "ledger_records_examined", "breaker_gauges_synced",
        }
        assert {k: v for k, v in armed.items() if k not in layer_only} == churn
        assert armed["ledger_ops_priced"] > 0
        assert armed["joint_validations"] == armed["join_loads_priced"] == 0
        # 32 node gauges: one write each per gauge refresh was 32 x (14
        # submits + 40 ticks) = 1728 before gauges followed the ledger.
        assert 32 <= armed["node_gauges_written"] < 1728 // 2


class TestLabOverhead:
    def test_harness_never_leaks_work_into_the_planner(self):
        """lab_overhead must do the exact planner work of service_churn
        -- the scenario lab's CandidateRun wrapper only observes (it
        scrapes telemetry and samples the cost integral, so it alone
        reads the cost gauge and sums flow prices)."""
        lab = PerfLab(cases=["service_churn", "lab_overhead"], repeats=1)
        churn = lab.run_case("service_churn")["ops"]
        wrapped = lab.run_case("lab_overhead")["ops"]
        lab_only = {
            "telemetry_samples", "telemetry_series", "telemetry_series_held",
            "flow_prices_summed",
        }
        assert "flow_prices_summed" not in churn
        assert {k: v for k, v in wrapped.items() if k not in lab_only} == churn
        assert wrapped["telemetry_samples"] > 0
        assert wrapped["telemetry_series"] > 0
        # The scraper re-read what changed, not every series every tick.
        assert 0 < wrapped["telemetry_series_held"] < wrapped["telemetry_samples"] // 2


class TestTrajectoryIO:
    def test_load_initializes_missing_file(self, tmp_path):
        doc = load_trajectory(tmp_path / "BENCH_trajectory.json")
        assert doc == {
            "kind": "repro.perf_trajectory", "version": 1, "entries": [],
        }

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        append_entry(path, {"label": "a", "cases": {}})
        doc = append_entry(path, {"label": "b", "cases": {}})
        assert [e["label"] for e in doc["entries"]] == ["a", "b"]
        on_disk = json.loads(path.read_text())
        assert on_disk == doc

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something.else"}))
        with pytest.raises(ValueError, match="not a perf trajectory"):
            load_trajectory(path)
