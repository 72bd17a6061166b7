"""Candidate panels: validation, building, layer toggles."""

import pytest

from repro.fleet import FleetController
from repro.lab.candidate import Candidate, candidates_from_list, default_panel
from repro.lab.spec import (
    CapacitySpec,
    ScenarioError,
    ScenarioSpec,
    TopologySpec,
    TraceSpec,
    WorkloadSpec,
    build_scenario,
)
from repro.service import StreamQueryService


def tiny_built(**overrides):
    base = dict(
        name="tiny",
        seed=3,
        ticks=3,
        topology=TopologySpec(nodes=16, max_cs=4),
        workload=WorkloadSpec(streams=4, queries=4, joins=(1, 2)),
        trace=TraceSpec(mode="churn", lifetime=2.0),
    )
    base.update(overrides)
    return build_scenario(ScenarioSpec(**base))


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ScenarioError, match="needs a name"):
            Candidate(name="")

    def test_bad_mode_and_role_rejected(self):
        with pytest.raises(ScenarioError, match="mode"):
            Candidate(name="x", mode="cluster")
        with pytest.raises(ScenarioError, match="role"):
            Candidate(name="x", role="challenger")

    def test_tenants_require_fleet_mode(self):
        with pytest.raises(ScenarioError, match="tenants require fleet"):
            Candidate(name="x", mode="service", tenants=True)

    def test_panel_rejects_duplicates_and_extra_anchors(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            candidates_from_list([{"name": "a"}, {"name": "a"}])
        with pytest.raises(ScenarioError, match="one baseline"):
            candidates_from_list(
                [{"name": "a", "role": "baseline"},
                 {"name": "b", "role": "baseline"}]
            )
        with pytest.raises(ScenarioError, match="one ceiling"):
            candidates_from_list(
                [{"name": "a", "role": "ceiling"},
                 {"name": "b", "role": "ceiling"}]
            )

    def test_empty_panel_rejected(self):
        with pytest.raises(ScenarioError, match="empty"):
            candidates_from_list([])

    def test_unknown_candidate_key_rejected(self):
        with pytest.raises(ScenarioError, match="bad candidate #0"):
            candidates_from_list([{"name": "a", "turbo": True}])

    def test_default_panel_shape(self):
        panel = default_panel()
        assert [c.name for c in panel] == ["no_reuse", "reuse"]
        assert panel[0].role == "baseline" and not panel[0].ads
        assert panel[1].ads


class TestBuilding:
    def test_service_mode_builds_a_service(self):
        built = tiny_built()
        plane = Candidate(name="svc", budget=8, max_per_tick=2).build(built)
        assert isinstance(plane, StreamQueryService)
        assert plane.admission.budget == 8
        assert plane.admission.max_per_tick == 2

    def test_no_ads_disables_planner_reuse(self):
        built = tiny_built()
        plane = Candidate(name="ctl", ads=False).build(built)
        assert plane.ads is None
        assert not plane.optimizer.reuse

    def test_fleet_mode_builds_a_fleet(self):
        built = tiny_built()
        plane = Candidate(name="f", mode="fleet", shards=2).build(built)
        assert isinstance(plane, FleetController)
        assert len(plane.shards) == 2

    def test_resources_need_a_capacity_profile(self):
        built = tiny_built()
        with pytest.raises(ScenarioError, match="no capacity profile"):
            Candidate(name="r", resources=True).build(built)

    def test_resources_build_against_the_scenario_capacities(self):
        built = tiny_built(capacity=CapacitySpec(profile="uniform"))
        plane = Candidate(name="r", resources=True).build(built)
        assert plane.resources is not None

    def test_a_fleet_candidate_under_a_capacity_profile_is_refused(self):
        built = tiny_built(capacity=CapacitySpec(profile="uniform"))
        with pytest.raises(ScenarioError, match="a fleet does not arm the resource layer"):
            Candidate(name="f", mode="fleet", shards=2).build(built)

    def test_faults_need_a_fault_plan(self):
        built = tiny_built()
        with pytest.raises(ScenarioError, match="no fault plan"):
            Candidate(name="f", faults=True).build(built)


class TestFaults:
    @pytest.mark.parametrize("mode", ["service", "fleet"])
    def test_an_armed_fault_plan_is_applied(self, mode):
        crash = {"kind": "node_crash", "time": 1.0, "node": 15}
        built = tiny_built(faults={"events": [crash]})
        plane = Candidate(name="f", mode=mode, shards=2, faults=True).build(built)
        services = plane.shards if mode == "fleet" else [plane]
        # Faults arm the resilience layer; a fleet's shards share the
        # one injector.
        assert all(s.resilience is not None for s in services)
        assert {id(s.faults) for s in services} == {id(services[0].faults)}
        plane.tick(1.0)
        applied = services[0].faults.applied
        assert [(e["kind"], e["time"], e["node"]) for e in applied] == [("crash", 1.0, 15)]
