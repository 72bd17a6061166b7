"""Fault plans and the deterministic fault injector."""

import json

import pytest

import repro
from repro.errors import FaultInjectionError
from repro.resilience.faults import (
    NULL_FAULTS,
    CoordinatorOutage,
    CoordinatorSlowdown,
    FaultInjector,
    FaultPlan,
    NodeCrash,
    StaleStatistics,
)
from repro.resilience import faults


class TestFaultPlanValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan([NodeCrash(time=-1.0, node=3)])

    def test_non_positive_duration_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan([CoordinatorOutage(time=1.0, node=3, duration=0.0)])

    def test_slowdown_factor_below_one_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan([CoordinatorSlowdown(time=1.0, node=0, duration=2.0, factor=0.5)])

    def test_events_sorted_by_time(self):
        plan = FaultPlan([
            StaleStatistics(time=9.0, duration=2.0),
            NodeCrash(time=2.0, node=1),
        ])
        assert [e.time for e in plan.events] == [2.0, 9.0]


class TestFaultPlanGenerate:
    def test_same_seed_same_plan(self):
        a = FaultPlan.generate(range(16), seed=4, duration=30.0)
        b = FaultPlan.generate(range(16), seed=4, duration=30.0)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_differs(self):
        a = FaultPlan.generate(range(16), seed=4, duration=30.0)
        b = FaultPlan.generate(range(16), seed=5, duration=30.0)
        assert a.to_dict() != b.to_dict()

    def test_protected_nodes_never_crash(self):
        protected = {0, 1, 2, 3}
        plan = FaultPlan.generate(
            range(16), seed=4, duration=30.0, crashes=10, protected=protected
        )
        victims = {e.node for e in plan.of_kind(NodeCrash)}
        assert victims.isdisjoint(protected)

    def test_event_mix_matches_request(self, monkeypatch):
        monkeypatch.setattr(faults, "OUTAGES", 3)
        monkeypatch.setattr(faults, "SLOWDOWNS", 1)
        plan = FaultPlan.generate(range(8), seed=1, duration=20.0, crashes=2)
        assert len(plan.of_kind(NodeCrash)) == 2
        assert len(plan.of_kind(CoordinatorOutage)) == 3
        assert len(plan.of_kind(CoordinatorSlowdown)) == 1
        assert len(plan.of_kind(StaleStatistics)) == 1

    def test_focus_aims_outages_and_slowdowns(self, monkeypatch):
        monkeypatch.setattr(faults, "OUTAGES", 5)
        monkeypatch.setattr(faults, "SLOWDOWNS", 5)
        focus = {5, 9}
        plan = FaultPlan.generate(range(16), seed=4, duration=30.0, focus=focus)
        hit = {e.node for e in plan.of_kind(CoordinatorOutage)}
        hit |= {e.node for e in plan.of_kind(CoordinatorSlowdown)}
        assert hit <= focus

    def test_focus_none_matches_unfocused_draws(self):
        a = FaultPlan.generate(range(16), seed=4, duration=30.0)
        b = FaultPlan.generate(range(16), seed=4, duration=30.0, focus=None)
        assert a.to_dict() == b.to_dict()

    def test_focus_outside_nodes_falls_back_to_all(self):
        plan = FaultPlan.generate(range(8), seed=4, duration=30.0, focus={99})
        assert plan.of_kind(CoordinatorOutage)

    def test_zero_nodes_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.generate([], seed=0, duration=10.0)


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan.generate(range(12), seed=7, duration=25.0)
        text = repro.fault_plan_to_json(plan)
        doc = json.loads(text)
        assert doc["kind"] == "repro.fault_plan"
        back = repro.fault_plan_from_json(text)
        assert back.to_dict() == plan.to_dict()

    def test_a_plan_written_with_a_seed_still_loads(self):
        doc = {"kind": "repro.fault_plan", "version": 1, "seed": 1234,
               "events": [{"kind": "node_crash", "time": 2.0, "node": 3,
                           "rejoin_after": None}]}
        plan = repro.fault_plan_from_json(json.dumps(doc))
        assert plan.events == [NodeCrash(time=2.0, node=3)]
        assert "seed" not in plan.to_dict()

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            repro.fault_plan_from_json(json.dumps({"kind": "repro.network"}))

    def test_unknown_event_kind_rejected(self):
        doc = {"kind": "repro.fault_plan", "seed": 0,
               "events": [{"kind": "meteor_strike", "time": 1.0}]}
        with pytest.raises(FaultInjectionError):
            repro.fault_plan_from_json(json.dumps(doc))

    def test_a_partition_event_is_an_unknown_kind(self):
        doc = {"kind": "repro.fault_plan",
               "events": [{"kind": "partition", "time": 1.0, "duration": 2.0,
                           "groups": [[0, 1], [2, 3]]}]}
        with pytest.raises(FaultInjectionError, match="unknown fault event kind 'partition'"):
            repro.fault_plan_from_json(json.dumps(doc))


class TestInjectorWindows:
    def test_outage_window(self):
        inj = FaultInjector(FaultPlan([CoordinatorOutage(time=5.0, node=3, duration=4.0)]))
        assert not inj.unreachable(3, 4.9)
        assert inj.unreachable(3, 5.0)
        assert inj.unreachable(3, 8.9)
        assert not inj.unreachable(3, 9.0)
        assert not inj.unreachable(4, 6.0)

    def test_crashed_nodes_unreachable(self):
        inj = FaultInjector(FaultPlan())
        inj.crashed.add(7)
        assert inj.unreachable(7, 0.0)

    def test_slowdown_factor(self):
        inj = FaultInjector(
            FaultPlan([CoordinatorSlowdown(time=2.0, node=1, duration=3.0, factor=8.0)])
        )
        assert inj.slowdown(1, 1.0) == 1.0
        assert inj.slowdown(1, 3.0) == 8.0
        assert inj.slowdown(2, 3.0) == 1.0

    def test_statistics_frozen_window(self):
        inj = FaultInjector(FaultPlan([StaleStatistics(time=3.0, duration=2.0)]))
        assert not inj.statistics_frozen(2.0)
        assert inj.statistics_frozen(4.0)
        assert not inj.statistics_frozen(5.5)


class TestInjectorEvents:
    def test_due_events_consumed_once_in_order(self):
        inj = FaultInjector(FaultPlan([
            NodeCrash(time=2.0, node=4, rejoin_after=3.0),
            NodeCrash(time=1.0, node=5),
        ]))
        first = inj.due_events(2.0)
        assert [(k, getattr(p, "node", p)) for k, p in first] == [
            ("crash", 5), ("crash", 4)
        ]
        assert inj.due_events(2.0) == []
        rejoin = inj.due_events(5.0)
        assert rejoin == [("rejoin", 4)]
        assert inj.due_events(100.0) == []

    def test_note_applied_logged(self):
        inj = FaultInjector(FaultPlan())
        inj.note_applied("crash", 2.0, node=4)
        assert inj.applied == [{"kind": "crash", "time": 2.0, "node": 4}]
        assert inj.summary()["events_applied"] == 1


class TestNullInjector:
    def test_everything_is_a_no_op(self):
        assert not NULL_FAULTS.enabled
        assert NULL_FAULTS.due_events(100.0) == []
        assert not NULL_FAULTS.unreachable(0, 0.0)
        assert NULL_FAULTS.slowdown(0, 0.0) == 1.0
        assert not NULL_FAULTS.statistics_frozen(0.0)
        assert NULL_FAULTS.summary()["events_planned"] == 0
