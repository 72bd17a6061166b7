"""Prometheus text-format edge cases in ``MetricRegistry.exposition``.

Regression tests for the format corners a real scraper chokes on:
empty histograms must still emit a full bucket ladder with ``+Inf``,
``_sum`` and ``_count``; HELP text must escape backslashes and
newlines; series names must be sanitized to the legal charset; and a
caller-supplied infinite bucket bound must not duplicate the implicit
``+Inf`` bucket.
"""

import math

import pytest

from repro.obs.metrics import MetricRegistry


class TestEmptyHistogramExposition:
    def test_empty_histogram_emits_full_ladder(self):
        reg = MetricRegistry()
        reg.histogram("wait", help="wait ticks", buckets=(1.0, 5.0))
        text = reg.exposition()
        assert 'wait_bucket{le="1"} 0' in text
        assert 'wait_bucket{le="5"} 0' in text
        assert 'wait_bucket{le="+Inf"} 0' in text
        assert "wait_sum 0" in text
        assert "wait_count 0" in text

    def test_populated_histogram_cumulative_buckets(self):
        reg = MetricRegistry()
        h = reg.histogram("wait", buckets=(1.0, 5.0))
        for v in (0.5, 3.0, 100.0):
            h.observe(v)
        text = reg.exposition()
        assert 'wait_bucket{le="1"} 1' in text
        assert 'wait_bucket{le="5"} 2' in text
        assert 'wait_bucket{le="+Inf"} 3' in text
        assert "wait_count 3" in text


class TestHelpEscaping:
    def test_backslash_and_newline_escaped(self):
        reg = MetricRegistry()
        reg.counter("c_total", "path C:\\tmp\nsecond line", lambda: 0)
        text = reg.exposition()
        assert "# HELP c_total path C:\\\\tmp\\nsecond line" in text
        # the escaped help stays on one physical line
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        assert len(help_lines) == 1


class TestNameSanitization:
    def test_illegal_characters_become_underscores(self):
        reg = MetricRegistry()
        reg.counter("tenant-gold.requests total", "h", lambda: 1)
        text = reg.exposition()
        assert "tenant_gold_requests_total 1" in text
        assert "tenant-gold" not in text

    def test_leading_digit_gets_prefixed(self):
        reg = MetricRegistry()
        reg.gauge("9lives").set(1)
        text = reg.exposition()
        assert "_9lives 1" in text
        assert "\n9lives" not in text


class TestInfiniteBucketBounds:
    def test_inf_bound_not_duplicated(self):
        reg = MetricRegistry()
        h = reg.histogram("lat", buckets=(1.0, math.inf))
        h.observe(0.5)
        text = reg.exposition()
        assert text.count('le="+Inf"') == 1
        assert h.bounds == (1.0,)

    def test_duplicate_bounds_deduped(self):
        reg = MetricRegistry()
        h = reg.histogram("lat2", buckets=(1.0, 1.0, 2.0))
        assert h.bounds == (1.0, 2.0)

    def test_all_infinite_bounds_rejected(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(math.inf,))
