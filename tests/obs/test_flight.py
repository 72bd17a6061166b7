"""FlightRecorder ring buffer and debug-bundle freezing."""

import json
from types import SimpleNamespace

from repro.obs import flight
from repro.obs.flight import BUNDLE_KIND, FlightRecorder
from repro.obs.tracer import Span


def hop(trace_id, send=1.0, deliver=1.1, src=0, dst=1, kind="deploy"):
    span = Span(kind, {"src": src, "dst": dst})
    span.trace_id, span.start, span.end = trace_id, send, deliver
    return span


class TestFlightRecorder:
    def test_ring_buffer_caps_entries(self, monkeypatch):
        monkeypatch.setattr(flight, "CAPACITY", 3)
        rec = FlightRecorder()
        for i in range(5):
            rec.record("event", float(i), "svc", n=i)
        assert len(rec.entries()) == 3
        assert [e["n"] for e in rec.entries()] == [2, 3, 4]
        assert rec.recorded_total == 5

    def test_record_tick_extracts_report_fields(self):
        rec = FlightRecorder()
        report = SimpleNamespace(
            deployed=["q1"], retired=[], parked=["q2"],
            migrated=[("q3", 1, 2)], drift_streams=[],
        )
        rec.record_tick("svc", 4.0, report)
        (entry,) = rec.entries()
        assert entry["kind"] == "tick"
        assert entry["time"] == 4.0
        assert entry["deployed"] == ["q1"]
        assert entry["parked"] == ["q2"]
        assert entry["migrated"] == [["q3", 1, 2]]
        assert "retired" not in entry  # empty fields stay off the entry

    def test_record_event_tolerates_time_and_scope_keys(self):
        rec = FlightRecorder()
        rec.record_event("svc", 2.0, {"rule": "r", "time": 1.5, "scope": "x"})
        (entry,) = rec.entries()
        assert entry["time"] == 2.0  # recorder's stamp wins
        assert entry["scope"] == "svc"
        assert entry["rule"] == "r"

    def test_hops_and_trace_ids(self):
        rec = FlightRecorder()
        n = rec.record_hops("svc", [hop("t-2"), hop("t-1"), hop("t-2")])
        assert n == 3
        assert rec.trace_ids() == ["t-1", "t-2"]

    def test_bundle_freezes_and_is_bounded(self, monkeypatch):
        monkeypatch.setattr(flight, "CAPACITY", 8)
        monkeypatch.setattr(flight, "MAX_BUNDLES", 2)
        rec = FlightRecorder()
        rec.record_hops("svc", [hop("t-1")])
        doc = rec.bundle("breaker_open", 5.0, scope="svc", context={"opens": 1})
        assert doc["kind"] == BUNDLE_KIND
        assert doc["trace_ids"] == ["t-1"]
        assert doc["context"] == {"opens": 1}
        assert doc["entries"] == rec.entries()
        json.dumps(doc, allow_nan=False)
        for i in range(3):
            rec.bundle(f"alert:{i}", 6.0 + i)
        assert len(rec.bundles) == 2  # bounded
        assert rec.bundles_total == 4
        snap = rec.snapshot()
        assert snap["bundles_total"] == 4
        assert len(snap["bundles"]) == 2
