"""TimeSeriesStore ring buffers, aggregations, and the registry scraper."""

import pytest

from repro.obs.metrics import MetricRegistry
from repro.obs.timeseries import (
    WALL_CLOCK_SERIES,
    TelemetryScraper,
    TimeSeriesStore,
    scoped_name,
    series_to_csv,
)


class TestTimeSeriesStore:
    def test_append_and_lookup(self):
        store = TimeSeriesStore()
        store.append("a", 1.0, 10.0)
        store.append("a", 2.0, 12.0)
        store.append("b", 1.0, 0.5)
        assert store.names() == ["a", "b"]
        assert store.window("a") == [(1.0, 10.0), (2.0, 12.0)]
        assert store.last("a") == 12.0
        assert store.last_time("a") == 2.0
        assert store.last("missing") is None
        assert len(store) == 2

    def test_capacity_is_a_ring_buffer(self):
        store = TimeSeriesStore(capacity=3)
        for t in range(6):
            store.append("a", float(t), float(t * 10))
        assert store.window("a") == [(3.0, 30.0), (4.0, 40.0), (5.0, 50.0)]
        with pytest.raises(ValueError):
            TimeSeriesStore(capacity=0)

    def test_window_filters_by_time(self):
        store = TimeSeriesStore()
        for t in range(10):
            store.append("a", float(t), float(t))
        assert store.window("a", duration=3.0) == [
            (6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0),
        ]
        assert store.window("a", duration=2.0, now=5.0) == [
            (3.0, 3.0), (4.0, 4.0), (5.0, 5.0),
        ]
        assert store.window("a") == [(float(t), float(t)) for t in range(10)]

    def test_delta_and_rate(self):
        store = TimeSeriesStore()
        store.append("c", 1.0, 10.0)
        assert store.delta("c") is None  # one sample is not a trend
        store.append("c", 3.0, 16.0)
        assert store.delta("c") == 6.0
        store.append("c", 3.0, 16.0)  # one sample inside a zero window
        assert store.delta("c", window=0.0) == 0.0

    def test_aggregate_dispatch(self):
        store = TimeSeriesStore()
        for t, v in enumerate([1.0, 5.0, 3.0]):
            store.append("a", float(t), v)
        assert store.aggregate("a", "last") == 3.0
        assert store.aggregate("a", "delta") == 2.0
        assert store.aggregate("missing", "last") is None
        with pytest.raises(ValueError):
            store.aggregate("a", "mean")

    def test_to_dict_roundtrip(self):
        store = TimeSeriesStore()
        store.append("b", 1.0, 2.0)
        store.append("a", 1.0, 1.0)
        doc = store.to_dict()
        assert list(doc) == ["a", "b"]  # sorted for determinism
        rebuilt = TimeSeriesStore()
        for name, points in doc.items():
            for t, v in points:
                rebuilt.append(name, t, v)
        assert rebuilt.to_dict() == doc


class TestTelemetryScraper:
    def _registry(self):
        registry = MetricRegistry()
        counts = {"reqs": 0}  # the counter's owner
        registry.counter("reqs_total", "requests", lambda: counts["reqs"])
        gauge = registry.gauge("depth", help="queue depth")
        hist = registry.histogram("wait", help="wait", buckets=(1.0, 5.0, 10.0))
        return registry, counts, gauge, hist

    def test_scrapes_counters_gauges_histograms(self):
        registry, counts, gauge, hist = self._registry()
        store = TimeSeriesStore()
        scraper = TelemetryScraper(store)
        scraper.register("svc", registry)
        counts["reqs"] += 3
        gauge.set(7)
        for v in (0.5, 2.0, 8.0):
            hist.observe(v)
        appended = scraper.scrape(1.0)
        assert appended > 0
        assert store.last("svc.reqs_total") == 3.0
        assert store.last("svc.depth") == 7.0
        assert store.last("svc.wait_count") == 3.0
        assert store.last("svc.wait_sum") == 10.5
        assert store.last("svc.wait_p50") is not None
        assert store.last("svc.wait_p95") is not None

    def test_unset_gauges_and_empty_histogram_quantiles_are_skipped(self):
        registry, counts, gauge, hist = self._registry()
        store = TimeSeriesStore()
        scraper = TelemetryScraper(store)
        scraper.register("svc", registry)
        counts["reqs"] += 1
        scraper.scrape(1.0)
        assert store.last("svc.depth") is None  # never set
        assert store.last("svc.wait_count") == 0.0  # count/sum always emit
        assert store.last("svc.wait_p50") is None  # but no quantiles

    def test_cadence_gates_scrapes(self):
        registry, counts, *_ = self._registry()
        store = TimeSeriesStore()
        scraper = TelemetryScraper(store, cadence=2.0)
        scraper.register("svc", registry)
        counts["reqs"] += 1
        assert scraper.due(1.0)
        assert scraper.scrape(1.0) > 0
        assert not scraper.due(2.0)
        assert scraper.scrape(2.0) == 0
        assert scraper.scrape(2.0, force=True) > 0
        assert scraper.due(4.5)
        with pytest.raises(ValueError):
            TelemetryScraper(store, cadence=0.0)

    def test_wall_clock_series_dropped_by_default(self):
        registry = MetricRegistry()
        wall = registry.histogram("service_planning_seconds", help="wall")
        wall.observe(0.01)
        assert "service_planning_seconds" in WALL_CLOCK_SERIES

        store = TimeSeriesStore()
        scraper = TelemetryScraper(store)
        scraper.register("svc", registry)
        scraper.scrape(1.0)
        assert store.names() == []

    def test_register_is_idempotent_and_sources_plug_in(self):
        registry, counts, *_ = self._registry()
        store = TimeSeriesStore()
        scraper = TelemetryScraper(store)
        scraper.register("svc", registry)
        scraper.register("svc", registry)
        scraper.add_source("extra", lambda: {"custom": 42.0})
        assert scraper.scopes() == ["svc", "extra"]
        counts["reqs"] += 1
        scraper.scrape(1.0)
        assert store.window("svc.reqs_total") == [(1.0, 3.0)] or store.window(
            "svc.reqs_total"
        ) == [(1.0, 1.0)]  # scraped once, not twice
        assert len(store.window("svc.reqs_total")) == 1
        assert store.last("extra.custom") == 42.0

    def test_scoped_name(self):
        assert scoped_name("svc", "m") == "svc.m"
        assert scoped_name("", "m") == "m"


class TestCsvExport:
    def make_store(self):
        store = TimeSeriesStore()
        store.append("b.second", 1.0, 4.0)
        store.append("a.first", 1.0, 2.0)
        store.append("a.first", 2.0, 2.5)
        return store

    def test_long_form_rows_sorted_by_series_then_time(self):
        assert series_to_csv(self.make_store().to_dict()) == (
            "series,time,value\n"
            "a.first,1.0,2.0\n"
            "a.first,2.0,2.5\n"
            "b.second,1.0,4.0\n"
        )

    def test_empty_store_is_header_only(self):
        assert series_to_csv(TimeSeriesStore().to_dict()) == "series,time,value\n"

    def test_values_round_trip_through_repr(self):
        store = TimeSeriesStore()
        store.append("x", 1.0, 0.1 + 0.2)  # the classic non-decimal float
        row = series_to_csv(store.to_dict()).splitlines()[1]
        assert float(row.split(",")[2]) == 0.1 + 0.2

    def test_prefix_columns_lead_each_row(self):
        csv = series_to_csv(
            {"x": [[1.0, 2.0]]}, prefix={"candidate": "reuse"}
        )
        assert csv == (
            "candidate,series,time,value\n"
            "reuse,x,1.0,2.0\n"
        )

    def test_fields_with_commas_or_quotes_are_rfc4180_quoted(self):
        csv = series_to_csv(
            {'weird,"name"': [[1.0, 2.0]]}, prefix={"tag": "a,b"}
        )
        assert '"a,b","weird,""name""",1.0,2.0' in csv
