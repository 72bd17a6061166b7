"""Typed metric registry: instrument semantics and export formats."""

import json
import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricRegistry


class TestCounter:
    def test_value_reads_the_owners_count(self):
        owner = {"requests": 0}
        c = MetricRegistry().counter("requests_total", "", lambda: owner["requests"])
        assert c.value == 0.0
        owner["requests"] = 5  # nothing stored here: read when asked
        assert c.value == 5.0 and isinstance(c.value, float)

    def test_the_feed_enters_a_counter_whose_count_moved(self):
        reg = MetricRegistry()
        owner = {"admitted": 3}
        reg.counter("admitted_total", "", lambda: owner["admitted"])
        cursor = reg.feed_cursor()
        assert reg.changes_since(cursor) == []  # declared at 3: no move yet
        owner["admitted"] = 7
        assert reg.changes_since(cursor) == ["admitted_total"]
        cursor = reg.feed_cursor()
        assert reg.changes_since(cursor) == []  # seen at 7, still 7
        # A count restored by a recovery moves it too, in any direction.
        owner["admitted"] = 2
        assert reg.changes_since(cursor) == ["admitted_total"]


class TestHistogram:
    def test_buckets_and_summary(self):
        h = MetricRegistry().histogram("lat", buckets=[0.1, 1.0, 10.0])
        for v in (0.05, 0.5, 0.5, 2.0, 20.0):
            h.observe(v)
        assert h.count == 5
        assert h.bucket_counts == [1, 2, 1, 1]  # le=0.1, 1, 10, +Inf
        assert h.sum == pytest.approx(23.05)
        s = h.summary()
        assert s["count"] == 5
        assert s["min"] == 0.05
        assert s["max"] == 20.0
        assert 0.1 <= s["p50"] <= 1.0

    def test_percentiles_clamp_to_observed_range(self):
        h = MetricRegistry().histogram("lat", buckets=[1.0])
        h.observe(0.4)
        h.observe(0.6)
        assert h.percentile(0.0) >= 0.4
        assert h.percentile(1.0) <= 0.6

    def test_empty_histogram_is_nan(self):
        h = MetricRegistry().histogram("lat")
        assert math.isnan(h.mean)
        assert math.isnan(h.percentile(0.5))

    def test_bad_quantile_raises(self):
        h = MetricRegistry().histogram("lat")
        with pytest.raises(ValueError):
            h.percentile(1.5)


class TestRegistry:
    def test_get_or_create_and_kind_mismatch(self):
        reg = MetricRegistry()
        c = reg.counter("x_total", "", lambda: 0)
        assert reg.counter("x_total", "", lambda: 1) is c  # keeps its own read
        assert c.value == 0.0
        assert reg.get("x_total") is c
        with pytest.raises(TypeError, match="is a counter"):
            reg.gauge("x_total")
        with pytest.raises(TypeError, match="is a counter"):
            reg.histogram("x_total")
        assert reg.names() == ["x_total"]

    def test_exposition_format(self):
        reg = MetricRegistry()
        reg.counter("reqs_total", "Total requests.", lambda: 3)
        reg.gauge("depth").set(2.5)
        h = reg.histogram("lat", buckets=[0.1, 1.0])
        h.observe(0.05)
        h.observe(0.5)
        text = reg.exposition()
        assert "# HELP reqs_total Total requests." in text
        assert "# TYPE reqs_total counter" in text
        assert "reqs_total 3" in text
        assert "depth 2.5" in text
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text  # cumulative
        assert "lat_sum 0.55" in text
        assert "lat_count 2" in text
        assert text.endswith("\n")

    def test_snapshot_is_json_serializable(self):
        reg = MetricRegistry()
        reg.counter("c_total", "", lambda: 1)
        reg.gauge("g")
        reg.histogram("h")  # empty: NaN summary must become null
        doc = json.loads(json.dumps(reg.snapshot()))
        assert doc["c_total"] == {"type": "counter", "value": 1}
        assert doc["g"]["value"] is None
        assert doc["h"]["p95"] is None
        assert doc["h"]["count"] == 0

    def test_instrument_classes_are_exported(self):
        reg = MetricRegistry()
        assert isinstance(reg.counter("a_total", "", lambda: 0), Counter)
        assert isinstance(reg.gauge("b"), Gauge)
        assert isinstance(reg.histogram("c"), Histogram)
