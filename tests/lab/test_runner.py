"""Lab runs: the envelope contract, determinism, and the headline repro."""

import json
from pathlib import Path

import pytest

from repro.lab import LabReport, load_scenario, run_lab
from repro.lab.report import lab_to_json
from repro.lab.runner import ENVELOPE_KIND, LAB_SCOPE
from repro.lab.spec import (
    ScenarioSpec,
    TenantSpec,
    TopologySpec,
    TraceSpec,
    WorkloadSpec,
    build_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "scenarios"


def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        seed=3,
        ticks=3,
        topology=TopologySpec(nodes=16, max_cs=4),
        workload=WorkloadSpec(streams=4, queries=4, joins=(1, 2)),
        trace=TraceSpec(mode="churn", lifetime=2.0, arrivals_per_tick=2),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestRunLab:
    def test_default_panel_when_spec_names_none(self):
        result = run_lab(tiny_spec())
        assert [r.candidate.name for r in result.runs] == ["no_reuse", "reuse"]

    def test_unknown_candidate_lookup_raises(self):
        result = run_lab(tiny_spec())
        with pytest.raises(KeyError):
            result.run("nope")

    def test_metrics_carry_the_comparison_keys(self):
        result = run_lab(tiny_spec())
        metrics = result.run("reuse").metrics()
        for key in (
            "final_cost", "cost_ticks", "live", "deployed_total",
            "cache_hit_rate", "plans_computed", "alerts_fired",
            "telemetry_samples", "telemetry_series",
        ):
            assert key in metrics, key
        assert metrics["deployed_total"] > 0
        assert metrics["cost_ticks"] > 0

    def test_each_candidate_gets_its_own_telemetry(self):
        result = run_lab(tiny_spec())
        stores = {id(r.telemetry.store) for r in result.runs}
        assert len(stores) == len(result.runs)
        for r in result.runs:
            names = set(r.telemetry.store.names())
            assert f"{LAB_SCOPE}.total_cost" in names
            assert f"{LAB_SCOPE}.live_queries" in names

    def test_ops_are_profiled_per_candidate(self):
        result = run_lab(tiny_spec())
        for r in result.runs:
            assert r.ops, r.candidate.name
            assert all(isinstance(v, int) for v in r.ops.values())

    def test_envelope_shape(self):
        envelope = run_lab(tiny_spec()).envelope()
        assert envelope["kind"] == ENVELOPE_KIND
        assert envelope["scenario"]["name"] == "tiny"
        assert len(envelope["candidates"]) == 2
        entry = envelope["candidates"][0]
        assert set(entry) == {"candidate", "metrics", "ops", "telemetry"}


class TestDeterminism:
    def test_same_seed_means_byte_identical_envelopes(self):
        spec = tiny_spec()
        first = lab_to_json(run_lab(spec))
        second = lab_to_json(run_lab(spec))
        assert first == second

    def test_no_wall_clock_leaks_into_the_envelope(self):
        text = lab_to_json(run_lab(tiny_spec()))
        assert "wall_seconds" not in text
        assert "service_planning_seconds" not in text

    def test_shipped_smoke_scenario_is_deterministic(self):
        spec = load_scenario(SCENARIO_DIR / "lab_smoke.json")
        assert lab_to_json(run_lab(spec)) == lab_to_json(run_lab(spec))


class TestDriving:
    def test_drive_extends_horizon_past_ticks_for_late_events(self):
        spec = tiny_spec(ticks=1, trace=TraceSpec(mode="twin_burst"))
        built = build_scenario(spec)
        assert max(e.time for e in built.events) == 2.0
        result = run_lab(spec)
        # both bursts were submitted even though ticks=1
        assert result.run("reuse").clock >= 2.0
        assert result.run("reuse").metrics()["deployed_total"] == 8

    def test_drift_scenarios_price_costs_with_an_oracle(self):
        spec = tiny_spec(
            ticks=4,
            trace=TraceSpec(mode="churn", lifetime=0.0),
            drift=[{"kind": "step", "at": 2.0, "factor": 5.0}],
        )
        flat = tiny_spec(ticks=4, trace=TraceSpec(mode="churn", lifetime=0.0))
        drifted = run_lab(spec).run("reuse").metrics()["final_cost"]
        calm = run_lab(flat).run("reuse").metrics()["final_cost"]
        # same deployments, 5x input rates => strictly costlier system
        assert drifted > calm

    def test_a_tenant_fleet_submits_each_event_for_its_tenant(self):
        spec = tiny_spec(
            ticks=6,
            topology=TopologySpec(nodes=24, max_cs=4),
            workload=WorkloadSpec(streams=6, queries=6, joins=(2, 3)),
            tenants=[TenantSpec("gold", weight=3.0), TenantSpec("bronze")],
            candidates=[{"name": "tenants", "mode": "fleet", "shards": 2,
                         "tenants": True}],
        )
        run = run_lab(spec).run("tenants")
        assert run.metrics()["deployed_total"] == 6
        totals = run.plane.tenant_summary()
        assert sum(t.get("rejected", 0) for t in totals.values()) == 0
        # Round-robin over the tenant mix, in trace order.
        assert [e.tenant for e in build_scenario(spec).events] == ["gold", "bronze"] * 3
        assert {name: t["admitted"] for name, t in totals.items()} == {"gold": 3, "bronze": 3}


class TestHeadlineReproduction:
    def test_fleet_reuse_scenario_reproduces_the_bench_fleet_bar(self):
        """The checked-in scenario recovers >= 80% of the single-service
        reuse savings across 4 hash-routed shards (the paper-motivated
        ``bench_fleet`` acceptance bar), straight from the lab."""
        spec = load_scenario(SCENARIO_DIR / "fleet_reuse.json")
        result = run_lab(spec)
        report = LabReport.from_result(result)

        metrics = {name: result.run(name).metrics() for name in report.names}
        ceiling = (
            metrics["no_reuse"]["final_cost"]
            - metrics["single_reuse"]["final_cost"]
        )
        assert ceiling > 0, "workload has no reuse potential to measure"
        recovery = report.recovery()["fleet_hash_4"]
        assert recovery >= 0.80
        assert metrics["fleet_hash_4"]["cross_shard_reuse"] > 0
        assert metrics["fleet_hash_4"]["invariant_violations"] == 0
