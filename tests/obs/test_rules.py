"""Alerting-rule lifecycle, rule types, and the default SLO pack."""

import pytest

from repro.obs.rules import (
    AbsenceRule,
    BurnRateRule,
    RecordingRule,
    RuleState,
    RulesEngine,
    ThresholdRule,
    default_rule_pack,
)
from repro.obs.timeseries import TimeSeriesStore


def make_store(**series):
    store = TimeSeriesStore()
    for name, points in series.items():
        for t, v in points:
            store.append(name, t, v)
    return store


class TestLifecycle:
    def test_pending_firing_resolved_inactive(self):
        store = TimeSeriesStore()
        rule = ThresholdRule("r", "x", ">", 10.0, for_ticks=2.0)
        engine = RulesEngine(store, [rule])

        store.append("x", 1.0, 5.0)
        assert engine.evaluate(1.0) == []
        assert rule.state is RuleState.INACTIVE

        store.append("x", 2.0, 20.0)  # breach starts
        events = engine.evaluate(2.0)
        assert rule.state is RuleState.PENDING
        assert [e["to"] for e in events] == ["pending"]

        store.append("x", 3.0, 20.0)  # sustained but < for_ticks
        assert engine.evaluate(3.0) == []
        assert rule.state is RuleState.PENDING

        store.append("x", 4.0, 20.0)  # sustained >= for_ticks
        events = engine.evaluate(4.0)
        assert rule.state is RuleState.FIRING
        assert [e["to"] for e in events] == ["firing"]
        assert rule.fired_at == 4.0
        assert rule.fire_count == 1

        store.append("x", 5.0, 5.0)  # clears
        events = engine.evaluate(5.0)
        assert rule.state is RuleState.RESOLVED
        assert [e["to"] for e in events] == ["resolved"]

        store.append("x", 6.0, 5.0)  # one tick in RESOLVED, then quiet
        events = engine.evaluate(6.0)
        assert rule.state is RuleState.INACTIVE
        assert [e["to"] for e in events] == ["inactive"]

    def test_reentry_from_resolved_restarts_the_hysteresis_clock(self):
        """FIRING -> RESOLVED -> PENDING -> FIRING: a breach that comes
        back right after resolving must serve the full ``for_ticks``
        dwell again -- the first episode's pending_since never bleeds
        into the second."""
        store = TimeSeriesStore()
        rule = ThresholdRule("r", "x", ">", 10.0, for_ticks=2.0)
        engine = RulesEngine(store, [rule])

        # episode one: breach at t=1, fire at t=3, clear at t=4
        for t in (1.0, 2.0, 3.0):
            store.append("x", t, 20.0)
            engine.evaluate(t)
        assert rule.state is RuleState.FIRING
        assert rule.fire_count == 1
        store.append("x", 4.0, 5.0)
        engine.evaluate(4.0)
        assert rule.state is RuleState.RESOLVED

        # episode two: breach returns while still RESOLVED
        store.append("x", 5.0, 20.0)
        events = engine.evaluate(5.0)
        assert rule.state is RuleState.PENDING
        assert [e["to"] for e in events] == ["pending"]
        assert rule.pending_since == 5.0  # fresh clock, not episode one's

        # one sustained tick is not enough for for_ticks=2 ...
        store.append("x", 6.0, 20.0)
        engine.evaluate(6.0)
        assert rule.state is RuleState.PENDING

        # ... two are: second independent firing
        store.append("x", 7.0, 20.0)
        events = engine.evaluate(7.0)
        assert rule.state is RuleState.FIRING
        assert [e["to"] for e in events] == ["firing"]
        assert rule.fire_count == 2
        assert rule.fired_at == 7.0

    def test_reentry_transitions_are_all_journaled(self):
        """The engine's event log carries both complete episodes in
        order -- reports count ``to == "firing"`` transitions, so a
        swallowed re-entry would undercount alerts."""
        store = TimeSeriesStore()
        rule = ThresholdRule("r", "x", ">", 10.0, for_ticks=1.0)
        engine = RulesEngine(store, [rule])
        pattern = [20.0, 20.0, 5.0, 20.0, 20.0, 5.0]
        for i, value in enumerate(pattern, start=1):
            store.append("x", float(i), value)
            engine.evaluate(float(i))
        transitions = [e["to"] for e in engine.events]
        assert transitions == [
            "pending", "firing", "resolved",
            "pending", "firing", "resolved",
        ]
        assert sum(1 for t in transitions if t == "firing") == 2

    def test_resolved_quiet_tick_then_reentry_from_inactive(self):
        """If the breach returns only after the RESOLVED tick has
        decayed to INACTIVE, the rule still re-enters cleanly."""
        store = TimeSeriesStore()
        rule = ThresholdRule("r", "x", ">", 10.0, for_ticks=0.0)
        engine = RulesEngine(store, [rule])
        store.append("x", 1.0, 20.0)
        engine.evaluate(1.0)
        assert rule.state is RuleState.FIRING
        store.append("x", 2.0, 5.0)
        engine.evaluate(2.0)
        assert rule.state is RuleState.RESOLVED
        store.append("x", 3.0, 5.0)
        engine.evaluate(3.0)
        assert rule.state is RuleState.INACTIVE
        store.append("x", 4.0, 20.0)
        engine.evaluate(4.0)
        assert rule.state is RuleState.FIRING
        assert rule.fire_count == 2

    def test_pending_unbreach_goes_straight_inactive(self):
        store = TimeSeriesStore()
        rule = ThresholdRule("r", "x", ">", 10.0, for_ticks=3.0)
        engine = RulesEngine(store, [rule])
        store.append("x", 1.0, 20.0)
        engine.evaluate(1.0)
        assert rule.state is RuleState.PENDING
        store.append("x", 2.0, 1.0)
        engine.evaluate(2.0)
        assert rule.state is RuleState.INACTIVE
        assert rule.fire_count == 0

    def test_for_ticks_zero_fires_immediately(self):
        store = TimeSeriesStore()
        rule = ThresholdRule("r", "x", ">", 0.0)
        engine = RulesEngine(store, [rule])
        store.append("x", 1.0, 1.0)
        events = engine.evaluate(1.0)
        assert rule.state is RuleState.FIRING
        # pending and firing happen on the same tick; one event reported
        assert [e["to"] for e in events] == ["firing"]

    def test_engine_history_and_firing(self):
        store = TimeSeriesStore()
        rule = ThresholdRule("r", "x", ">", 0.0)
        engine = RulesEngine(store, [rule])
        store.append("x", 1.0, 1.0)
        engine.evaluate(1.0)
        assert engine.firing() == [rule]
        assert len(engine.events) == 1
        snap = engine.snapshot()
        assert snap["alerts"][0]["state"] == "firing"
        assert snap["events"] == engine.events


class TestRuleTypes:
    def test_threshold_warmup_guard(self):
        store = make_store(
            hit_rate=[(1.0, 0.0)],
            lookups=[(1.0, 1.0)],
        )
        rule = ThresholdRule(
            "r", "hit_rate", "<", 0.5,
            activate_series="lookups", activate_at=5.0,
        )
        # cold: lookups < 5, a 0.0 hit rate is not a breach yet
        assert not rule.breached(rule.value(store, 1.0), 1.0)
        store.append("hit_rate", 3.0, 0.0)
        store.append("lookups", 3.0, 10.0)
        assert rule.breached(rule.value(store, 3.0), 3.0)

    def test_threshold_missing_series_never_breaches(self):
        store = TimeSeriesStore()
        rule = ThresholdRule("r", "missing", ">", 0.0)
        assert rule.evaluate(store, 1.0) is None
        assert rule.state is RuleState.INACTIVE

    def test_threshold_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            ThresholdRule("r", "x", "~", 1.0)

    def test_absence_rule_counts_never_reported_as_absent(self):
        store = TimeSeriesStore()
        rule = AbsenceRule("r", "hb", stale_after=3.0)
        assert rule.breached(rule.value(store, 10.0), 10.0)
        store.append("hb", 9.0, 1.0)
        assert not rule.breached(rule.value(store, 10.0), 10.0)
        assert rule.breached(rule.value(store, 13.5), 13.5)

    def test_burn_rate_math(self):
        # 20 total, 14 good over the window -> error 0.3, budget 0.1
        store = make_store(
            good=[(0.0, 0.0), (8.0, 14.0)],
            total=[(0.0, 0.0), (8.0, 20.0)],
        )
        rule = BurnRateRule("r", "good", "total", objective=0.9, max_burn=2.0)
        value = rule.value(store, 8.0)
        assert value == pytest.approx(3.0)
        assert rule.breached(value, 8.0)
        with pytest.raises(ValueError):
            BurnRateRule("r2", "good", "total", objective=1.0, max_burn=1.0)

    def test_burn_rate_needs_traffic(self):
        store = make_store(good=[(0.0, 0.0)], total=[(0.0, 0.0)])
        rule = BurnRateRule("r", "good", "total", objective=0.9, max_burn=1.0)
        assert rule.value(store, 1.0) is None

    def test_recording_rule_derives_series(self):
        store = make_store(a=[(1.0, 3.0)], b=[(1.0, 4.0)])
        rule = RecordingRule("sum_ab", ["a", "b"])
        rule.evaluate(store, 1.0)
        assert store.last("sum_ab") == 7.0
        # derived series is immediately visible to alert rules
        alert = ThresholdRule("r", "sum_ab", ">", 5.0)
        engine = RulesEngine(store, [alert])
        events = engine.evaluate(1.0)
        assert [e["to"] for e in events] == ["firing"]

    def test_duplicate_rule_names_raise(self):
        store = TimeSeriesStore()
        engine = RulesEngine(store, [ThresholdRule("r", "x", ">", 1.0)])
        with pytest.raises(ValueError):
            engine.add(ThresholdRule("r", "y", "<", 1.0))


class TestDefaultPack:
    def test_pack_shape(self):
        rules = default_rule_pack(["service"])
        names = {r.name for r in rules}
        assert "service:cache_hit_rate_low" in names
        assert "service:admission_queue_wait_high" in names
        assert "service:breaker_tripped" in names
        assert "service:migration_failures" in names
        assert "service:admission_slo_burn" in names
        assert "service:telemetry_stalled" in names
        assert "service.service_submitted_total" in names  # recording rule

    def test_pack_is_per_scope(self):
        rules = default_rule_pack(["shard0", "shard1"])
        names = {r.name for r in rules}
        assert "shard0:breaker_tripped" in names
        assert "shard1:breaker_tripped" in names
        assert {name.split(":")[0].split(".")[0] for name in names} == {"shard0", "shard1"}

    def test_pack_loads_into_an_engine(self):
        # A reporting queue-depth gauge keeps the liveness absence rule
        # quiet; nothing else has data, so no rule transitions.
        store = make_store(**{"service.service_queue_depth": [(1.0, 0.0)]})
        engine = RulesEngine(store, default_rule_pack(["service"]))
        assert engine.evaluate(1.0) == []
