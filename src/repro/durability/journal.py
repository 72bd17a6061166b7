"""The write-ahead journal: typed, CRC-checked, LSN-ordered JSON lines.

One :class:`Journal` backs one control plane (a
:class:`~repro.service.service.StreamQueryService` or a
:class:`~repro.fleet.controller.FleetController`).  Every record is one
JSON line ``{"lsn", "kind", "time", "data", "crc"}`` where ``crc`` is
the CRC-32 of the canonical JSON of the other four fields, and ``lsn``
is a strictly monotonic log sequence number starting at 1.

Records come in two flavours:

* **commands** (:data:`COMMAND_KINDS`) are journaled *before* the
  control plane executes them, and are the only records
  :func:`repro.durability.recovery.recover` re-executes -- the control
  plane is deterministic, so replaying the command suffix after a
  snapshot reconstructs the exact pre-crash state;
* **markers** (:data:`MARKER_KINDS`) are appended *during* execution
  (admission verdicts, deploys, migration barrier phases, federation
  publications, ...).  They are never replayed; they exist so crash
  points can target every interesting instant between two state
  changes, and so ``repro recover --inspect`` can tell exactly how far
  an in-flight migration got.

Torn writes are first-class: :func:`scan_journal` accepts any file
whose suffix is garbage (a half-written line, a CRC mismatch, an LSN
gap) and reports exactly which records were dropped;
:func:`repair_journal` additionally quarantines the bad suffix to a
side file and truncates the journal so appends can resume cleanly.

Crash injection lives here too: :meth:`Journal.arm` takes the seeded
:class:`~repro.resilience.faults.CrashPoint` events of a fault plan and
raises :class:`SimulatedCrash` at the exact record boundary each one
names (optionally tearing the record being written).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Iterable

JOURNAL_VERSION = 1
JOURNAL_FILE = "journal.jsonl"

#: Records that are journaled *before* execution and re-executed on
#: recovery.  Everything else in the journal is a marker.
COMMAND_KINDS = frozenset(
    {
        "cmd_submit",
        "cmd_tick",
        "cmd_retire",
        "cmd_node_failure",
        "cmd_rejoin",
        "cmd_observe",
        "cmd_rebalance",
    }
)

#: Records appended mid-execution; never replayed, only inspected.
MARKER_KINDS = frozenset(
    {
        "admit",
        "deploy",
        "park",
        "retire",
        "migrate_begin",
        "migrate_phase",
        "migrate_commit",
        "migrate_abort",
        "federation_publish",
        "federation_withdraw",
        "tenant_accounting",
        "snapshot",
        "tick_end",
    }
)


class SimulatedCrash(RuntimeError):
    """An armed :class:`~repro.resilience.faults.CrashPoint` fired.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the
    resilience retry ladders catch ``ReproError``, and a simulated
    process death must rip straight through them the way a real
    ``kill -9`` would.
    """


def canonical_json(doc: Any) -> str:
    """Canonical (sorted-keys, no-whitespace) JSON used for CRCs."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def record_crc(lsn: int, kind: str, time: float, data: Any) -> int:
    """CRC-32 over the canonical JSON of a record's payload fields."""
    payload = canonical_json({"lsn": lsn, "kind": kind, "time": time, "data": data})
    return zlib.crc32(payload.encode("utf-8"))


def encode_record(lsn: int, kind: str, time: float, data: Any) -> str:
    """One journal line (no trailing newline) with its CRC filled in:
    ``"crc"`` sorts first, so it is spliced in front of the payload's
    canonical JSON, which is encoded once."""
    payload = canonical_json({"lsn": lsn, "kind": kind, "time": time, "data": data})
    return f'{{"crc":{zlib.crc32(payload.encode("utf-8"))},{payload[1:]}'


class Journal:
    """Append-only WAL over one ``journal.jsonl`` file.

    Args:
        path: The journal file (created lazily on first append).
        fsync: Fsync after every append.  Off by default -- the tests
            and the simulator only need crash *semantics*, not disk
            guarantees -- but the counter is maintained either way so
            the ``durability_journal_fsyncs_total`` instrument is real
            when it is on.
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        #: LSN of the last durable record (0 = empty journal).
        self.lsn = 0
        self.records_total = 0
        self.fsyncs_total = 0
        self.bytes_total = 0
        #: While True (recovery replay), every append is a no-op.
        self.replaying = False
        self._fh = None
        self._armed: list[Any] = []
        self._fired: set[int] = set()

    # ------------------------------------------------------------------
    # Crash injection
    # ------------------------------------------------------------------
    def arm(self, points: Iterable[Any]) -> None:
        """Arm seeded crash points (fault-plan ``CrashPoint`` events).

        Each point fires at most once, when the journal reaches the
        record boundary it names (see :meth:`append` /
        :meth:`pending_snapshot_crash`).  Arming is explicit -- a
        recovered controller starts unarmed, so recovery never
        re-triggers the crash it is recovering from.
        """
        self._armed.extend(points)

    def _next_crash(self, lsn: int, mid_snapshot: bool):
        for i, point in enumerate(self._armed):
            if i in self._fired:
                continue
            if bool(getattr(point, "mid_snapshot", False)) != mid_snapshot:
                continue
            if lsn >= point.after_lsn:
                self._fired.add(i)
                return point
        return None

    def pending_snapshot_crash(self):
        """The armed mid-snapshot point due at the current LSN, if any."""
        return self._next_crash(self.lsn, mid_snapshot=True)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, kind: str, time: float, data: Any) -> int | None:
        """Append one record; returns its LSN (``None`` during replay).

        If an armed crash point is due at this boundary the process
        "dies" here: a clean point writes the record fully and then
        raises :class:`SimulatedCrash` (the record *is* durable); a
        ``torn_tail`` point writes only a prefix of the line with no
        newline before raising (the record is torn and a later
        :func:`scan_journal` will drop it).
        """
        if kind not in COMMAND_KINDS and kind not in MARKER_KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        if self.replaying:
            return None
        lsn = self.lsn + 1
        line = encode_record(lsn, kind, time, data)
        point = self._next_crash(lsn, mid_snapshot=False)
        if point is not None and point.torn_tail:
            # Tear the record: half the bytes, no newline, then die.
            self._write(line[: max(1, len(line) // 2)])
            raise SimulatedCrash(
                f"crash point fired tearing record lsn={lsn} kind={kind!r}"
            )
        self._write(line + "\n")
        self.lsn = lsn
        self.records_total += 1
        if point is not None:
            raise SimulatedCrash(
                f"crash point fired after record lsn={lsn} kind={kind!r}"
            )
        return lsn

    def _write(self, text: str) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(text)
        self._fh.flush()
        self.bytes_total += len(text)
        if self.fsync:
            os.fsync(self._fh.fileno())
            self.fsyncs_total += 1

    def close(self) -> None:
        """Close the backing file (reopened lazily on the next append)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# Scanning and repair
# ----------------------------------------------------------------------
def _validate_line(line: bytes, expect_lsn: int) -> tuple[dict[str, Any] | None, str]:
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return None, "not valid UTF-8 (torn write)"
    try:
        doc = json.loads(text)
    except ValueError:
        return None, "not valid JSON (torn write)"
    if not isinstance(doc, dict):
        return None, "record is not a JSON object"
    missing = {"lsn", "kind", "time", "data", "crc"} - set(doc)
    if missing:
        return None, f"missing fields {sorted(missing)}"
    if doc["lsn"] != expect_lsn:
        return None, f"LSN gap: expected {expect_lsn}, found {doc['lsn']}"
    if record_crc(doc["lsn"], doc["kind"], doc["time"], doc["data"]) != doc["crc"]:
        return None, "CRC mismatch"
    return doc, ""


def scan_journal(path: str | Path) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Read every valid record; report the dropped suffix, if any.

    Validation is prefix-greedy: records are accepted while each line
    parses, carries the expected monotonic LSN, and its CRC matches.
    The first failure quarantines everything after it (a torn tail can
    shear a line such that later bytes *look* parseable; trusting any
    suffix past a corruption would be unsound).

    Returns ``(records, report)`` where ``report`` has ``records``
    (accepted), ``last_lsn``, ``dropped_lines``, ``dropped_bytes``,
    ``valid_bytes`` and ``reason`` (empty string when the journal is
    fully clean).  Lines are decoded one by one: a torn UTF-8 tail drops.
    """
    path = Path(path)
    records: list[dict[str, Any]] = []
    report: dict[str, Any] = {
        "records": 0,
        "last_lsn": 0,
        "dropped_lines": 0,
        "dropped_bytes": 0,
        "reason": "",
    }
    if not path.exists():
        return records, report
    raw = path.read_bytes()
    consumed = 0
    lines = raw.split(b"\n")
    for i, line in enumerate(lines):
        if not line:
            consumed += 1  # the newline itself (or trailing empty split)
            continue
        doc, problem = _validate_line(line, len(records) + 1)
        if doc is None:
            report["reason"] = f"line {i + 1}: {problem}"
            break
        records.append(doc)
        consumed += len(line) + 1
    else:
        consumed = len(raw) + 1
    good_bytes = min(consumed, len(raw))
    if report["reason"]:
        bad = raw[good_bytes:]
        report["dropped_bytes"] = len(bad)
        report["dropped_lines"] = sum(1 for l in bad.split(b"\n") if l)
    report["records"] = len(records)
    report["last_lsn"] = records[-1]["lsn"] if records else 0
    report["valid_bytes"] = good_bytes
    return records, report


def repair_journal(path: str | Path) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Scan; quarantine any corrupt suffix and truncate the journal.

    The bad bytes are moved to ``<journal>.quarantine-<k>`` (never
    overwritten -- repeated crashes keep distinct evidence files) and
    the journal is truncated to its last valid record, so a reopened
    :class:`Journal` appends cleanly after the repaired tail.  Returns
    the same ``(records, report)`` as :func:`scan_journal`, with
    ``report["quarantined_to"]`` set when a suffix was cut.
    """
    path = Path(path)
    records, report = scan_journal(path)
    if report["reason"] and path.exists():
        raw = path.read_bytes()
        good = raw[: report["valid_bytes"]]
        bad = raw[report["valid_bytes"]:]
        k = 0
        while True:
            quarantine = path.with_name(f"{path.name}.quarantine-{k}")
            if not quarantine.exists():
                break
            k += 1
        quarantine.write_bytes(bad)
        path.write_bytes(good)
        report["quarantined_to"] = quarantine.name
    return records, report
