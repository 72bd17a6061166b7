"""The flight recorder: a bounded black box dumped when things go wrong.

:class:`FlightRecorder` keeps the last :data:`CAPACITY` noteworthy moments
-- tick reports, runtime/rule events, causal message hops -- in one ring
buffer.  When an alert fires or a circuit breaker opens, the telemetry
pipeline calls :meth:`FlightRecorder.bundle` to freeze the buffer into a
deterministic ``repro.flight_bundle`` JSON document: the recent history
an operator (or a test) needs to reconstruct *why*, annotated with the
causal trace ids involved so ``repro trace --causal`` can expand any hop
into its full span tree.

Determinism contract: entries carry only virtual times and structural
data (never wall clock, never object ids), so the same seeded scenario
produces byte-identical bundles.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Mapping

BUNDLE_KIND = "repro.flight_bundle"
BUNDLE_VERSION = 1
#: Entries a recorder retains (oldest fall off).
CAPACITY = 256
#: Bundles a recorder retains (oldest fall off) -- an incident storm
#: cannot grow the envelope without bound.
MAX_BUNDLES = 8


class FlightRecorder:
    """Ring buffer of recent telemetry moments, dumpable as bundles."""

    def __init__(self) -> None:
        self._entries: deque[dict[str, Any]] = deque(maxlen=CAPACITY)
        self.bundles: deque[dict[str, Any]] = deque(maxlen=MAX_BUNDLES)
        self.recorded_total = 0
        self.bundles_total = 0
        #: When set (the durability layer points it at
        #: ``<state_dir>/flight``), every bundle is also written to disk
        #: as it is cut, so incident history survives a crash and
        #: ``repro dash --from <state_dir>`` can read it post-restart.
        self.persist_dir: Any = None
        self.persisted_total = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, kind: str, time: float, scope: str, **data: Any) -> None:
        """Append one entry (``kind`` in {tick, event, hop, message})."""
        self._entries.append(
            {"kind": kind, "time": float(time), "scope": scope, **data}
        )
        self.recorded_total += 1

    def record_tick(self, scope: str, time: float, report: Any) -> None:
        """Append a service/fleet tick report (names only, no objects)."""
        data: dict[str, Any] = {}
        for field in ("deployed", "retired", "parked", "migrated", "drift_streams"):
            value = getattr(report, field, None)
            if value:
                data[field] = [
                    v if isinstance(v, str) else list(v) for v in value
                ]
        self.record("tick", time, scope, **data)

    def record_event(self, scope: str, time: float, event: Mapping[str, Any]) -> None:
        """Append a rule transition or runtime message."""
        data = {k: v for k, v in event.items() if k not in ("time", "scope")}
        self.record("event", time, scope, **data)

    def record_hops(self, scope: str, hops: Iterable[Any]) -> int:
        """Append causal message hops (:class:`~repro.obs.tracer.Span` objects).

        Only structural fields are kept -- trace id, hop kind, endpoints
        and virtual times -- so bundles stay deterministic and small.
        """
        n = 0
        for hop in hops:
            self.record(
                "hop",
                hop.start,
                scope,
                trace_id=hop.trace_id,
                hop_kind=hop.name,
                src=hop.tags["src"],
                dst=hop.tags["dst"],
                deliver_time=hop.end,
            )
            n += 1
        return n

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries(self) -> list[dict[str, Any]]:
        """The retained entries, oldest first."""
        return [dict(e) for e in self._entries]

    def trace_ids(self) -> list[str]:
        """Distinct causal trace ids currently in the buffer, sorted."""
        return sorted(
            {e["trace_id"] for e in self._entries if e.get("trace_id")}
        )

    # ------------------------------------------------------------------
    # Bundling
    # ------------------------------------------------------------------
    def bundle(
        self,
        reason: str,
        time: float,
        scope: str = "",
        context: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Freeze the buffer into a deterministic debug bundle.

        The bundle is also retained on :attr:`bundles` (bounded) so the
        telemetry envelope carries the recent incident history.
        """
        doc = {
            "kind": BUNDLE_KIND,
            "version": BUNDLE_VERSION,
            "reason": reason,
            "time": float(time),
            "scope": scope,
            "context": dict(context or {}),
            "trace_ids": self.trace_ids(),
            "entries": self.entries(),
        }
        self.bundles.append(doc)
        self.bundles_total += 1
        if self.persist_dir is not None:
            self._persist(doc)
        return doc

    def _persist(self, doc: dict[str, Any]) -> None:
        import json
        from pathlib import Path

        directory = Path(self.persist_dir)
        directory.mkdir(parents=True, exist_ok=True)
        # Sequence-numbered names keep multiple bundles at the same
        # virtual time distinct and sort in cut order.
        path = directory / f"bundle-{self.bundles_total:06d}.json"
        path.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        self.persisted_total += 1

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready recorder state for the telemetry envelope."""
        return {
            "capacity": self._entries.maxlen,
            "recorded_total": self.recorded_total,
            "bundles_total": self.bundles_total,
            "bundles": [dict(b) for b in self.bundles],
        }


def load_bundles(directory) -> list[dict[str, Any]]:
    """Read persisted flight bundles from disk, oldest first.

    Accepts the bundle directory itself or a durability state directory
    (its ``flight/`` subdirectory is used).  Files that fail to parse or
    are not ``repro.flight_bundle`` envelopes are skipped -- a crash can
    tear the newest bundle mid-write.
    """
    import json
    from pathlib import Path

    directory = Path(directory)
    if (directory / "flight").is_dir():
        directory = directory / "flight"
    out: list[dict[str, Any]] = []
    for path in sorted(directory.glob("bundle-*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            continue
        if isinstance(doc, dict) and doc.get("kind") == BUNDLE_KIND:
            out.append(doc)
    return out
