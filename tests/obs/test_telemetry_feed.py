"""The change-feed scraper and the lazy store against the eager pair.

:class:`repro.obs.timeseries.TelemetryScraper` re-reads only the
instruments a registry's feed names and hands them to
:meth:`TimeSeriesStore.hold`; the store owes each held series one sample
per :meth:`~TimeSeriesStore.mark` and pays on read.  The eager pair in
``reference_telemetry`` walks every instrument and appends every series
on every scrape.  Both must be the same function of what was declared,
updated, appended and scraped:

* pinned cases for the rules of the lazy path (which value a mark
  belongs to, what survives ``capacity``, what enters a feed);
* a derandomized hypothesis state machine over instruments, sources,
  direct appends and scrapes, comparing every read after every rule;
* a bound on the feed of a registry nobody reads.
"""

import copy
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
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        hist = registry.histogram("h", buckets=(1.0,))
        assert registry.changes_since(None) == ["c", "g", "h"]
        cursor = registry.feed_cursor()
        assert registry.changes_since(cursor) == []
        hist.observe(0.5)
        counter.inc()
        hist.observe(2.0)  # moves h behind c again, listed once
        assert registry.changes_since(cursor) == ["c", "h"]
        assert registry.changes_since(None) == ["c", "g", "h"]  # everything
        gauge.set(1.0)
        gauge.set(1.0)  # the value it already had still counts
        assert registry.changes_since(registry.feed_cursor()) == []
        assert registry.changes_since(cursor) == ["c", "h", "g"]

    def test_get_or_create_of_a_known_name_is_not_a_change(self):
        registry = MetricRegistry()
        registry.counter("c")
        cursor = registry.feed_cursor()
        registry.counter("c")
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
        registry.counter("c").inc()
        assert registry.changes_since(early) == ["g", "c"]
        assert registry.changes_since(late) == ["c"]

    def test_an_unread_feed_is_no_larger_than_the_instrument_count(self):
        registry = MetricRegistry()
        instruments = [registry.gauge(f"g{i}") for i in range(7)]
        instruments += [registry.counter(f"c{i}") for i in range(5)]
        hist = registry.histogram("h")
        for step in range(10_000):
            instrument = instruments[step % len(instruments)]
            instrument.inc(1.0)
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
        assert store.series("a") == [(1.0, 1.0), (2.0, 1.0), (3.0, 5.0)]

    def test_a_series_is_held_from_its_first_hold_on(self):
        store = TimeSeriesStore()
        store.hold("early", 1.0)
        store.mark(1.0)
        store.hold("late", 2.0)
        assert store.names() == ["early", "late"] and len(store) == 2
        assert store.last("late") is None and store.series("late") == []
        store.mark(2.0)
        assert store.series("late") == [(2.0, 2.0)]
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
        assert store.series("a") == [(0.5, 9.0), (1.0, 1.0), (1.0, 8.0), (2.0, 1.0)]
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
        assert store.series("s.g") == [(1.0, 1.0), (2.0, 2.0)]

    def test_an_idle_scrape_holds_nothing_and_counts_every_series(self):
        registry = MetricRegistry()
        registry.counter("c").inc()
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
        assert store.series("s.h_count") == [(1.0, 0.0), (2.0, 0.0)]


# ----------------------------------------------------------------------
# Differential state machine
# ----------------------------------------------------------------------
_CAPACITY = 4
#: name -> kind; "dropped" is in the scrapers' ``drop`` set.
_NAMES = {
    "c0": "counter", "c1": "counter", "g0": "gauge", "g1": "gauge",
    "h0": "histogram", "h1": "histogram", "dropped": "gauge",
}
_SOURCE_KEYS = ("k0", "k1", "dropped")
_DURATIONS = (None, 0.0, 2.0, 100.0)


class Pair:
    """One shipped scraper + store and their eager twins, fed alike."""

    def __init__(self, cadence: float) -> None:
        self.store = TimeSeriesStore(capacity=_CAPACITY)
        self.scraper = TelemetryScraper(self.store, cadence=cadence, drop=("dropped",))
        self.ref_store = reference.TimeSeriesStore(capacity=_CAPACITY)
        self.ref_scraper = reference.TelemetryScraper(
            self.ref_store, cadence=cadence, drop=("dropped",)
        )

    def both(self, method: str, *args, **kwargs):
        got = getattr(self.scraper, method)(*args, **kwargs)
        want = getattr(self.ref_scraper, method)(*args, **kwargs)
        assert got == want, (method, args, got, want)
        return got


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
        # Declared and not observed: its _count and _sum are scraped at 0.
        self.registries[0].histogram("h0")
        self.now = 0.0
        self.source: dict[str, float | None] = {}
        self.every = Pair(cadence=1.0)
        self.third = Pair(cadence=3.0)
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
        return getattr(registry, _NAMES[name])(name)

    @rule(reg=st.integers(0, 1), name=st.sampled_from(sorted(_NAMES)))
    def declare(self, reg, name):
        self._declare(reg, name)

    @rule(
        reg=st.integers(0, 1),
        name=st.sampled_from(["g0", "g1", "dropped"]),
        how=st.sampled_from(["set", "inc"]),
        value=st.sampled_from([0.0, 1.0, 2.5, -1.0, -2.5]),
    )
    def move_gauge(self, reg, name, how, value):
        getattr(self._declare(reg, name), how)(value)

    @rule(reg=st.integers(0, 1), name=st.sampled_from(["c0", "c1"]), amount=st.sampled_from([0.0, 1.0, 3.0]))
    def inc_counter(self, reg, name, amount):
        self._declare(reg, name).inc(amount)

    @rule(reg=st.integers(0, 1), name=st.sampled_from(["c0", "c1"]), grow=st.booleans())
    def sync_counter(self, reg, name, grow):
        counter = self._declare(reg, name)
        counter.sync_total(counter.total + (2.0 if grow else 0.0))
        self.seen["sync_new" if grow else "sync_same"] += 1

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
        for pair in self.pairs:
            self.seen["first_scrape"] += any(
                cursor is None for *_, cursor in pair.scraper._registries
            )
            pair.both("scrape", self.now, force=force)

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
    @rule(data=st.data(), how=st.sampled_from(["series", "last", "last_time", "window", "to_dict"]))
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
                assert again.series(name) == want.series(name)
            assert got.to_dict() == want.to_dict()
            assert got.to_csv() == want.to_csv()


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
        "first_observe_after_a_scrape", "sync_same", "sync_new", "source_none",
        "double_scrapes", "carried_past_capacity", "left_unread_9_marks",
    ):
        assert seen[mechanism], f"no example exercised {mechanism}: {dict(seen)}"
