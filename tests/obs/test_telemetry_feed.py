"""The change-feed scraper and the lazy store against the eager pair.

:class:`repro.obs.timeseries.TelemetryScraper` re-reads only the
instruments a registry's feed names and hands them to
:meth:`TimeSeriesStore.hold`; the store owes each held series one sample
per :meth:`~TimeSeriesStore.mark` and pays on read.  The eager pair in
``reference_telemetry`` walks every instrument and appends every series
on every scrape.  Both must be the same function of what was declared,
updated, appended and scraped:

* pinned cases for the rules of the lazy path (which value a mark
  belongs to, what survives ``capacity``, what enters a feed, what
  counts as a change to the rules engine);
* a derandomized hypothesis state machine over instruments, sources,
  direct appends, scrapes and rule evaluations, comparing every read,
  every rule's state and every evaluation's transitions after every
  rule against the eager pair and the eager :class:`RulesEngine` (which
  re-runs every rule on every evaluation);
* a bound on the feed of a registry nobody reads.
"""

import copy
import json
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.obs import rules as shipped_rules
from repro.obs.metrics import MetricRegistry
from repro.obs.timeseries import TelemetryScraper, TimeSeriesStore
from repro.perf.profiler import profiled

from tests.obs import reference_telemetry as reference


# ----------------------------------------------------------------------
# The registry's change feed
# ----------------------------------------------------------------------
class TestChangeFeed:
    def test_declarations_and_updates_enter_oldest_change_first(self):
        registry = MetricRegistry()
        assert registry.changes_since(None) == []
        count = [0]
        registry.counter("c", "", lambda: count[0])
        gauge = registry.gauge("g")
        hist = registry.histogram("h", buckets=(1.0,))
        assert registry.changes_since(None) == ["c", "g", "h"]
        cursor = registry.feed_cursor()
        assert registry.changes_since(cursor) == []
        hist.observe(0.5)
        count[0] += 1  # the next look at the feed enters c
        assert registry.changes_since(cursor) == ["h", "c"]
        hist.observe(2.0)  # moves h behind c again, listed once
        assert registry.changes_since(cursor) == ["c", "h"]
        assert registry.changes_since(None) == ["c", "g", "h"]  # everything
        gauge.set(1.0)
        gauge.set(1.0)  # the value it already had still counts
        assert registry.changes_since(registry.feed_cursor()) == []
        assert registry.changes_since(cursor) == ["c", "h", "g"]

    def test_get_or_create_of_a_known_name_is_not_a_change(self):
        registry = MetricRegistry()
        registry.counter("c", "", lambda: 0)
        cursor = registry.feed_cursor()
        registry.counter("c", "", lambda: 0)
        assert registry.changes_since(cursor) == []

    def test_a_rejected_declaration_enters_nothing(self):
        registry = MetricRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(float("inf"),))
        assert registry.changes_since(None) == [] and registry.get("h") is None

    def test_two_readers_keep_their_own_cursors(self):
        registry = MetricRegistry()
        gauge = registry.gauge("g")
        early = registry.feed_cursor()
        gauge.set(1.0)
        late = registry.feed_cursor()
        registry.counter("c", "", lambda: 1)
        assert registry.changes_since(early) == ["g", "c"]
        assert registry.changes_since(late) == ["c"]

    def test_an_unread_feed_is_no_larger_than_the_instrument_count(self):
        registry = MetricRegistry()
        counts = [0] * 5
        instruments = [registry.gauge(f"g{i}") for i in range(7)]
        instruments += [registry.counter(f"c{i}", "", lambda i=i: counts[i]) for i in range(5)]
        hist = registry.histogram("h")
        for step in range(10_000):
            instrument = instruments[step % len(instruments)]
            if instrument.kind == "gauge":
                instrument.set(float(step))
            else:
                counts[int(instrument.name[1:])] += 1
                registry.changes_since(None)  # a look at the feed enters it
            hist.observe(0.001 * step)
        assert len(registry._feed._serials) == len(registry.names()) == 13
        assert hist.count == 10_000


# ----------------------------------------------------------------------
# Hold, mark, read
# ----------------------------------------------------------------------
class TestHeldSeries:
    def test_a_mark_belongs_to_the_value_held_when_it_was_made(self):
        store = TimeSeriesStore()
        assert store.hold("a", 1.0) is True
        store.mark(1.0)
        store.mark(2.0)
        assert store.hold("a", 5.0) is False  # unread marks keep the old value
        store.mark(3.0)
        assert store.window("a") == [(1.0, 1.0), (2.0, 1.0), (3.0, 5.0)]

    def test_a_series_is_held_from_its_first_hold_on(self):
        store = TimeSeriesStore()
        store.hold("early", 1.0)
        store.mark(1.0)
        store.hold("late", 2.0)
        assert store.names() == ["early", "late"] and len(store) == 2
        assert store.last("late") is None and store.window("late") == []
        store.mark(2.0)
        assert store.window("late") == [(2.0, 2.0)]
        assert store.last_time("early") == 2.0

    def test_a_series_unread_past_capacity_keeps_the_newest_marks(self):
        store = TimeSeriesStore(capacity=4)
        store.hold("a", 7.0)
        for now in range(9):
            store.mark(float(now))
        assert store.to_dict() == {"a": [[5.0, 7.0], [6.0, 7.0], [7.0, 7.0], [8.0, 7.0]]}

    def test_direct_appends_interleave_with_carried_samples_in_call_order(self):
        store = TimeSeriesStore()
        store.append("a", 0.5, 9.0)
        store.hold("a", 1.0)
        store.mark(1.0)
        store.append("a", 1.0, 8.0)
        store.mark(2.0)
        assert store.window("a") == [(0.5, 9.0), (1.0, 1.0), (1.0, 8.0), (2.0, 1.0)]
        assert store.window("a", 1.0) == [(1.0, 1.0), (1.0, 8.0), (2.0, 1.0)]
        assert store.window("a", 1.0, now=1.5) == [(0.5, 9.0), (1.0, 1.0), (1.0, 8.0)]


class TestFeedScraper:
    def test_a_scrape_samples_the_values_it_read(self):
        registry = MetricRegistry()
        gauge = registry.gauge("g")
        store = TimeSeriesStore()
        scraper = TelemetryScraper(store)
        scraper.register("s", registry)
        gauge.set(1.0)
        scraper.scrape(1.0)
        gauge.set(2.0)
        scraper.scrape(2.0)
        assert store.window("s.g") == [(1.0, 1.0), (2.0, 2.0)]

    def test_an_idle_scrape_holds_nothing_and_counts_every_series(self):
        registry = MetricRegistry()
        registry.counter("c", "", lambda: 1)
        registry.gauge("unset")
        registry.histogram("h")
        store = TimeSeriesStore()
        scraper = TelemetryScraper(store)
        scraper.register("s", registry)
        with profiled() as prof:
            assert scraper.scrape(1.0) == 3  # c, h_count, h_sum
        assert prof.ops["telemetry_series_held"] == 3
        with profiled() as prof:
            assert scraper.scrape(2.0) == 3
        assert prof.ops["telemetry_series_held"] == 0
        assert scraper.summary()["samples"] == 6
        assert store.window("s.h_count") == [(1.0, 0.0), (2.0, 0.0)]


class TestRulesReadWhatMoved:
    """Pinned cases of what counts as a change, each run against the
    eager engine over an eager store fed the same samples."""

    @staticmethod
    def run(rules, steps) -> None:
        """``steps``: ``(now, "hold", series, value)``, ``(now, "append",
        series, value)`` or ``(now, "mark")``; the eager store appends what
        is held at each mark, and both engines evaluate after every step
        but a hold."""
        store, ref_store, held = TimeSeriesStore(), reference.TimeSeriesStore(), {}
        engine, ref_engine = shipped_rules.RulesEngine(store), reference.RulesEngine(ref_store)
        for rule in rules(shipped_rules):
            engine.add(rule)
        for rule in rules(reference):
            ref_engine.add(rule)
        for now, op, *args in steps:
            if op == "hold":
                store.hold(*args)
                held[args[0]] = args[1]
                continue
            if op == "append":
                store.append(args[0], now, args[1])
                ref_store.append(args[0], now, args[1])
            else:
                store.mark(now)
                for series, value in held.items():
                    ref_store.append(series, now, value)
            assert _text(engine.evaluate(now)) == _text(ref_engine.evaluate(now)), now
            assert _text(engine.snapshot()) == _text(ref_engine.snapshot()), now
            assert _text(store.to_dict()) == _text(ref_store.to_dict()), now

    def test_a_zero_that_changes_sign_is_a_change(self):
        def rules(m):
            return [m.ThresholdRule("h", "h", "<", -1.0), m.ThresholdRule("a", "a", "<", -1.0)]

        self.run(rules, [
            (1.0, "hold", "h", 0.0), (1.0, "mark"), (1.0, "append", "a", 0.0),
            (2.0, "hold", "h", -0.0), (2.0, "mark"), (2.0, "append", "a", -0.0),
        ])

    def test_the_mark_after_an_append_brings_the_held_value_back(self):
        def rules(m):
            return [m.ThresholdRule("high", "h", ">", 5.0)]

        # Fires on the appended 9.0, resolves when the next mark samples 1.0.
        self.run(rules, [
            (1.0, "hold", "h", 1.0), (1.0, "mark"), (1.5, "append", "h", 9.0), (2.0, "mark"),
        ])


# ----------------------------------------------------------------------
# Differential state machine
# ----------------------------------------------------------------------
_CAPACITY = 4
#: A name in ``WALL_CLOCK_SERIES``, which every scraper skips.
_DROPPED = "service_planning_seconds"
#: name -> kind.
_NAMES = {
    "c0": "counter", "c1": "counter", "g0": "gauge", "g1": "gauge",
    "h0": "histogram", "h1": "histogram", _DROPPED: "gauge",
}
_SOURCE_KEYS = ("k0", "k1", _DROPPED)
_DURATIONS = (None, 0.0, 2.0, 100.0)


def rule_set(rules, scope: str) -> list:
    """One rule of each kind and reading, built from ``rules`` (the
    shipped module or the reference) over the series a pair scrapes
    under ``scope``: rules that pend, fire and resolve, windowed and
    whole-ring deltas, a source series that stops being sampled, a
    series that never appears, and rules over a recorded series."""
    s = (scope + ".") if scope else ""
    return [
        rules.RecordingRule("rec.sum", [s + "c0", s + "g0", "direct.x"]),
        rules.RecordingRule("rec.delta", ["direct.y", s + "c1", "never.seen"], aggregate="delta"),
        rules.ThresholdRule("g0_high", s + "g0", ">", 1.0, for_ticks=2.0),
        rules.ThresholdRule("g1_low", s + "g1", "<", 0.0),
        rules.ThresholdRule(
            "c0_moved", s + "c0", ">", 0.0, aggregate="delta", window=2.0, for_ticks=1.0
        ),
        rules.ThresholdRule("c1_ring", s + "c1", ">=", 3.0, aggregate="delta"),
        rules.ThresholdRule("k0_recent", "src.k0", ">", 2.0, window=2.0),
        rules.ThresholdRule("k0_high", "src.k0", ">", 2.0),
        rules.ThresholdRule(
            "h0_slow", s + "h0_p95", ">", 1.0, for_ticks=1.0,
            activate_series=s + "h0_count", activate_at=2.0,
        ),
        rules.ThresholdRule("rec_moved", "rec.sum", "!=", 0.0, aggregate="delta", window=3.0),
        rules.ThresholdRule("never", "never.seen", ">", 0.0, aggregate="delta", window=2.0),
        rules.AbsenceRule("k1_stalled", "src.k1", stale_after=2.0, for_ticks=1.0),
        rules.BurnRateRule(
            "burn", s + "c0", s + "c1", objective=0.5, max_burn=1.0, window=3.0, for_ticks=1.0
        ),
        rules.BurnRateRule("burn_ring", "direct.x", "direct.y", objective=0.5, max_burn=0.5),
    ]


def _text(doc) -> str:
    """Bit-exact comparison form (``-0.0`` is not ``0.0``, NaN is NaN)."""
    return json.dumps(doc, sort_keys=True)


class Pair:
    """One shipped scraper + store + rules engine and their eager twins,
    fed alike."""

    def __init__(self, cadence: float, scope: str) -> None:
        self.store = TimeSeriesStore(capacity=_CAPACITY)
        self.scraper = TelemetryScraper(self.store, cadence=cadence)
        self.ref_store = reference.TimeSeriesStore(capacity=_CAPACITY)
        self.ref_scraper = reference.TelemetryScraper(self.ref_store, cadence=cadence)
        self.engine = shipped_rules.RulesEngine(self.store)
        self.ref_engine = reference.RulesEngine(self.ref_store)
        for rule in rule_set(shipped_rules, scope):
            self.engine.add(rule)
        for rule in rule_set(reference, scope):
            self.ref_engine.add(rule)

    def both(self, method: str, *args, **kwargs):
        got = getattr(self.scraper, method)(*args, **kwargs)
        want = getattr(self.ref_scraper, method)(*args, **kwargs)
        assert got == want, (method, args, got, want)
        return got

    def evaluate(self, now: float, seen: Counter) -> None:
        """Evaluate both engines: the same transitions, bit for bit."""
        with profiled() as prof:
            got = self.engine.evaluate(now)
        want = self.ref_engine.evaluate(now)
        assert _text(got) == _text(want), (now, got, want)
        rules = len(self.ref_engine.recording) + len(self.ref_engine.alerts)
        seen["rules_skipped"] += rules - prof.ops.get("rules_evaluated", 0)
        for event in want:
            seen[f"to_{event['to']}"] += 1
        ring = self.ref_store.series("c1") or self.ref_store.series("a.c1")
        seen["whole_ring_delta_evicting"] += len(ring) == _CAPACITY
        # A series a 2-wide window rule reads, sampled before and not since.
        windowed = [s for s in ("src.k0", "c0", "a.c0") if self.ref_store.series(s)]
        seen["window_emptied_alone"] += any(
            not self.ref_store.window(s, 2.0, now) for s in windowed
        )


class TelemetryFeedMachine(RuleBasedStateMachine):
    """Two registries; scraper ``every`` (cadence 1) reads both of them
    and a source, scraper ``third`` (cadence 3) reads the first registry
    again.  The shipped stores are read only by ``peek`` and by the
    scrapers themselves; every comparison reads a deep copy, so a series
    nobody asks about stays unread across marks."""

    seen: Counter

    def __init__(self) -> None:
        super().__init__()
        self.registries = [MetricRegistry(), MetricRegistry()]
        self.counts: dict[tuple[int, str], float] = {}
        # Declared and not observed: its _count and _sum are scraped at 0.
        self.registries[0].histogram("h0")
        self.now = 0.0
        self.source: dict[str, float | None] = {}
        self.every = Pair(cadence=1.0, scope="a")
        self.third = Pair(cadence=3.0, scope="")
        self.pairs = [self.every, self.third]
        self.every.both("register", "a", self.registries[0])
        self.every.both("add_source", "src", lambda: dict(self.source))
        self.third.both("register", "", self.registries[0])
        self.late_registered = False

    # -- instruments ---------------------------------------------------
    def _declare(self, reg: int, name: str):
        registry = self.registries[reg]
        if registry.get(name) is None:
            self.seen["declared_mid_run"] += self.every.scraper.scrapes_total > 0
        if _NAMES[name] == "counter":
            # A counter reads its owner's count: here, the machine's.
            key = (reg, name)
            self.counts.setdefault(key, 0.0)
            return registry.counter(name, "", lambda: self.counts[key])
        return getattr(registry, _NAMES[name])(name)

    @rule(reg=st.integers(0, 1), name=st.sampled_from(sorted(_NAMES)))
    def declare(self, reg, name):
        self._declare(reg, name)

    @rule(
        reg=st.integers(0, 1),
        name=st.sampled_from(["g0", "g1", _DROPPED]),
        value=st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, -2.5]),
    )
    def move_gauge(self, reg, name, value):
        self._declare(reg, name).set(value)

    @rule(reg=st.integers(0, 1), name=st.sampled_from(["c0", "c1"]), amount=st.sampled_from([0.0, 1.0, 3.0]))
    def count(self, reg, name, amount):
        self._declare(reg, name)
        self.counts[(reg, name)] += amount
        self.seen["count_moved" if amount else "count_same"] += 1

    @rule(reg=st.integers(0, 1), name=st.sampled_from(["h0", "h1"]), value=st.sampled_from([0.0004, 0.02, 3.0, 50.0]))
    def observe(self, reg, name, value):
        hist = self._declare(reg, name)
        scraped_empty = self.every.ref_store.last(f"{'ab'[reg]}.{name}_count") == 0.0
        self.seen["first_observe_after_a_scrape"] += hist.count == 0 and scraped_empty
        hist.observe(value)

    # -- sources and direct appends -----------------------------------
    @rule(key=st.sampled_from(_SOURCE_KEYS), value=st.sampled_from([None, 1.0, 4.0, "gone"]))
    def edit_source(self, key, value):
        if value == "gone":
            self.source.pop(key, None)
        else:
            self.source[key] = value
            self.seen["source_none"] += value is None

    @rule(series=st.sampled_from(["direct.x", "direct.y"]), value=st.sampled_from([0.0, 6.0]))
    def append_unheld(self, series, value):
        for pair in self.pairs:
            pair.store.append(series, self.now, value)
            pair.ref_store.append(series, self.now, value)

    @rule(data=st.data(), value=st.sampled_from([0.0, 6.0]))
    def append_held(self, data, value):
        # What a recording rule does when it is named after a scraped series.
        pair = data.draw(st.sampled_from(self.pairs))
        if pair.store._held:
            series = data.draw(st.sampled_from(sorted(pair.store._held)))
            pair.store.append(series, self.now, value)
            pair.ref_store.append(series, self.now, value)

    # -- scrapes -------------------------------------------------------
    def _scrape(self, force: bool) -> None:
        # As the telemetry pipeline does: rules evaluate after each scrape.
        for pair in self.pairs:
            self.seen["first_scrape"] += any(
                cursor is None for *_, cursor in pair.scraper._registries
            )
            due = force or pair.scraper.due(self.now)
            pair.both("scrape", self.now, force=force)
            if due:
                pair.evaluate(self.now, self.seen)

    @rule()
    def let_time_pass(self):
        # No scrape: windowed readings lose their older samples.
        self.now += 2.5

    @rule(data=st.data())
    def evaluate_without_a_scrape(self, data):
        # Time moved with no sample: windows lose their old samples.
        data.draw(st.sampled_from(self.pairs)).evaluate(self.now, self.seen)

    @rule()
    def tick(self):
        self.now += 1.0
        self._scrape(force=False)

    @rule()
    def scrape_twice_at_one_time(self):
        self._scrape(force=True)
        self._scrape(force=True)
        self.seen["double_scrapes"] += 1

    @precondition(lambda self: not self.late_registered)
    @rule()
    def register_second_registry(self):
        # Its feed cursor starts at None under a store already carrying
        # series: everything declared so far is looked at once.
        self.late_registered = True
        self.every.both("register", "b", self.registries[1])
        self.every.both("register", "b", self.registries[1])  # idempotent
        self.seen["late_registrations"] += self.every.scraper.scrapes_total > 0

    # -- reads ---------------------------------------------------------
    @rule(data=st.data(), how=st.sampled_from(["last", "last_time", "window", "to_dict"]))
    def peek(self, data, how):
        """Read the shipped store itself: pays what one series is owed
        (or, for ``to_dict``, every series) and leaves the rest unread."""
        pair = data.draw(st.sampled_from(self.pairs))
        names = pair.ref_store.names()
        if how == "to_dict":
            assert pair.store.to_dict() == pair.ref_store.to_dict()
        elif names:
            name = data.draw(st.sampled_from(names))
            args = (name, 2.0, self.now) if how == "window" else (name,)
            assert getattr(pair.store, how)(*args) == getattr(pair.ref_store, how)(*args)

    @invariant()
    def every_read_matches_the_eager_pair(self):
        for pair in self.pairs:
            owed = [
                pair.store._marked - marks for _, marks in pair.store._held.values()
            ]
            self.seen["carried_past_capacity"] += any(n > _CAPACITY for n in owed)
            self.seen["left_unread_9_marks"] += any(n >= 9 for n in owed)
            assert pair.scraper.summary() == pair.ref_scraper.summary()
            got, want = copy.deepcopy(pair.store), pair.ref_store
            assert got.names() == want.names()
            assert len(got) == len(want)
            for name in want.names():
                assert got.last(name) == want.last(name)
                assert got.last_time(name) == want.last_time(name)
            for name in [*want.names(), "never.seen"]:
                again = copy.deepcopy(pair.store)
                for duration in _DURATIONS:
                    for now in (None, self.now, self.now - 1.0):
                        assert again.window(name, duration, now) == want.window(
                            name, duration, now
                        ), (name, duration, now)
                assert again.window(name) == want.series(name)
            assert _text(got.to_dict()) == _text(want.to_dict())
            assert _text(pair.engine.snapshot()) == _text(pair.ref_engine.snapshot())


#: Derandomized: the same examples every run, so the mechanisms the test
#: insists on having been exercised are exercised every run.
_MACHINE = settings(
    max_examples=40, stateful_step_count=40, deadline=None, derandomize=True
)


def test_lazy_telemetry_matches_the_eager_pair_after_every_rule():
    TelemetryFeedMachine.seen = seen = Counter()
    run_state_machine_as_test(TelemetryFeedMachine, settings=_MACHINE)
    for mechanism in (
        "first_scrape", "late_registrations", "declared_mid_run",
        "first_observe_after_a_scrape", "count_same", "count_moved", "source_none",
        "double_scrapes", "carried_past_capacity", "left_unread_9_marks",
        "rules_skipped", "to_pending", "to_firing", "to_resolved", "to_inactive",
        "whole_ring_delta_evicting", "window_emptied_alone",
    ):
        assert seen[mechanism], f"no example exercised {mechanism}: {dict(seen)}"
