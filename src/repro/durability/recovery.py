"""Crash recovery: snapshot restore + deterministic command replay.

:func:`recover` rebuilds a crashed control plane in three steps:

1. **Repair** -- scan the journal, quarantine any torn/corrupt suffix
   (CRC mismatch, LSN gap, half-written line) and truncate to the last
   valid record; reject truncated/corrupt snapshots and fall back to
   the newest older valid one.
2. **Restore** -- build a *pristine* controller with the caller's
   deterministic factory (same seeds, same config) and assign the
   snapshot state into it (:mod:`repro.durability.state`).
3. **Replay** -- re-execute every *command* record with LSN greater
   than the snapshot's through the controller's ordinary code paths,
   with journaling suppressed.  The control plane is deterministic (no
   wall clock in decisions, seeded RNGs are part of the snapshot), so
   replay converges on the exact pre-crash state -- including rolling
   an in-flight migration forward through the same barrier phases the
   journal recorded for the crashed run.

Marker records are never replayed; they are *evidence*.  In-flight
migrations (a ``migrate_begin`` with no ``migrate_commit`` /
``migrate_abort``) are classified by their last recorded barrier phase
for :func:`inspect_state_dir` and the recovery report, and resolve
during replay of their enclosing command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.commands import replay
from repro.errors import RecoveryError, ReproError, StateMismatchError
from repro.durability.journal import (
    COMMAND_KINDS,
    JOURNAL_FILE,
    repair_journal,
    scan_journal,
)
from repro.durability.snapshot import load_latest, snapshot_inventory


@dataclass
class RecoveryReport:
    """What one :func:`recover` call did.

    Attributes:
        scope: ``"service"`` or ``"fleet"``.
        snapshot_lsn: LSN of the restored snapshot (0 = none existed;
            the whole journal was replayed).
        snapshot_file: File name of the restored snapshot, if any.
        last_lsn: LSN of the last valid journal record.
        replayed_records: Command records re-executed.
        replayed_ticks: Tick commands among them.
        journal_drop: The journal scan/repair report (torn-tail info).
        snapshots_rejected: Snapshot files skipped as corrupt/truncated.
        in_flight_migrations: Migrations that were mid-cutover at crash
            time, each with the last barrier phase the journal recorded.
    """

    scope: str = ""
    snapshot_lsn: int = 0
    snapshot_file: str = ""
    last_lsn: int = 0
    replayed_records: int = 0
    replayed_ticks: int = 0
    journal_drop: dict[str, Any] = field(default_factory=dict)
    snapshots_rejected: list[dict[str, Any]] = field(default_factory=list)
    in_flight_migrations: list[dict[str, Any]] = field(default_factory=list)


def classify_in_flight_migrations(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Migrations begun but not committed/aborted, by last phase seen.

    The phase ladder is ``begin -> pause -> transfer -> resume -> swap
    -> commit|abort``; an entry's ``phase`` is the deepest barrier the
    journal recorded before the crash (``"begin"`` when the crash hit
    before the first barrier record).
    """
    open_migrations: dict[str, dict[str, Any]] = {}
    for rec in records:
        kind = rec["kind"]
        if kind == "migrate_begin":
            data = dict(rec["data"])
            open_migrations[data["query"]] = {
                "query": data["query"],
                "begin_lsn": rec["lsn"],
                "phase": "begin",
                "data": data,
            }
        elif kind == "migrate_phase":
            entry = open_migrations.get(rec["data"]["query"])
            if entry is not None:
                entry["phase"] = rec["data"]["phase"]
        elif kind in ("migrate_commit", "migrate_abort"):
            open_migrations.pop(rec["data"]["query"], None)
    return [open_migrations[name] for name in sorted(open_migrations)]


def replay_plan(records: list[dict[str, Any]], snapshot_lsn: int) -> list[dict[str, Any]]:
    """The command records a recovery from the snapshot at
    ``snapshot_lsn`` re-executes, in journal order (markers never)."""
    return [rec for rec in records if rec["lsn"] > snapshot_lsn and rec["kind"] in COMMAND_KINDS]


# ----------------------------------------------------------------------
# Command dispatch
# ----------------------------------------------------------------------
def _replay_command(controller, rec: dict[str, Any]) -> None:
    """Re-execute one command record through the ordinary code paths.

    The record's kind names the method the controller's class declared
    with :func:`repro.commands.command`; its data are that method's
    arguments.

    A command the first run refused (duplicate name, unknown query,
    planning error surfaced to the caller) raised a
    :class:`~repro.errors.ReproError` there and raises it identically
    here; in both runs the caller saw the error while the control plane
    kept its state, so it replays as a no-op.

    Raises:
        RecoveryError: Anything else: the record names a kind the
            controller does not declare, carries data its command does
            not take, or hits a bug.  Skipping it would recover a state
            the crashed run never had.
    """
    try:
        replay(controller, rec["kind"], rec["data"])
    except ReproError:
        pass
    except Exception as exc:
        raise RecoveryError(
            f"journal record lsn {rec['lsn']} ({rec['kind']}) cannot be "
            f"replayed: {type(exc).__name__}: {exc}"
        ) from exc


def recover(
    state_dir: str | Path,
    factory: Callable[[], Any],
) -> tuple[Any, RecoveryReport]:
    """Rebuild a crashed controller from ``state_dir``.

    Args:
        state_dir: The durability directory of the crashed run.
        factory: Deterministic constructor returning a pristine
            controller (service or fleet) whose ``durability=`` config
            points at the same ``state_dir``.  It must reproduce the
            original construction exactly (same topology seeds, same
            workload catalog, same layer configs).

    Returns:
        ``(controller, report)`` -- the recovered controller, ready to
        serve, with its journal positioned after the last valid record.

    Raises:
        RecoveryError: The factory's controller has no durability, or a
            snapshot cannot be restored or a journal record replayed.
        StateMismatchError: The snapshot does not fit the controller the
            factory built: another scope or state version, a section for
            a layer the factory did not arm, or none for one it did.
    """
    state_dir = Path(state_dir)
    controller = factory()
    durability = getattr(controller, "durability", None)
    if durability is None:
        raise RecoveryError(
            "factory() must return a controller constructed with a "
            "durability= config pointing at the state_dir"
        )

    records, journal_drop = repair_journal(state_dir / JOURNAL_FILE)
    snapshot, rejected = load_latest(state_dir)

    report = RecoveryReport(
        scope=durability.scope,
        journal_drop=journal_drop,
        snapshots_rejected=rejected,
        last_lsn=records[-1]["lsn"] if records else 0,
        in_flight_migrations=classify_in_flight_migrations(records),
    )

    if snapshot is not None:
        from repro.durability.state import restore_fleet, restore_service

        if snapshot["scope"] != durability.scope:
            raise StateMismatchError(
                f"snapshot scope {snapshot['scope']!r} does not match "
                f"controller scope {durability.scope!r}"
            )
        report.snapshot_lsn = snapshot["lsn"]
        report.snapshot_file = f"snapshot-{snapshot['lsn']:012d}.json"
        restore = restore_fleet if durability.scope == "fleet" else restore_service
        try:
            restore(controller, snapshot["state"])
        except StateMismatchError:
            raise
        except Exception as exc:
            raise RecoveryError(
                f"snapshot {report.snapshot_file} cannot be restored: {type(exc).__name__}: {exc}"
            ) from exc
        if getattr(controller, "telemetry", None) is not None:
            controller.telemetry.restored()

    durability.journal.replaying = True
    try:
        for rec in replay_plan(records, report.snapshot_lsn):
            _replay_command(controller, rec)
            report.replayed_records += 1
            if rec["kind"] == "cmd_tick":
                report.replayed_ticks += 1
    finally:
        durability.journal.replaying = False
    durability.journal.lsn = report.last_lsn
    durability.note_recovery(report.replayed_records, report.replayed_ticks)
    return controller, report


def inspect_state_dir(state_dir: str | Path) -> dict[str, Any]:
    """Read-only report of a state directory (``repro recover``).

    Reports the journal's valid prefix and exactly what a recovery
    would drop (torn tail, corrupt snapshots), command/marker counts by
    kind, the snapshot inventory, in-flight migrations and which
    snapshot + replay suffix a recovery would use.  Touches nothing on
    disk.

    Raises:
        StateMismatchError: The snapshot a recovery would restore was
            written by another state version.
    """
    from repro.durability.state import check_version

    state_dir = Path(state_dir)
    records, journal_drop = scan_journal(state_dir / JOURNAL_FILE)
    snapshot, rejected, snapshots = snapshot_inventory(state_dir)
    if snapshot is not None:
        check_version(snapshot["state"])  # a recovery would refuse it too
    kinds: dict[str, int] = {}
    for rec in records:
        kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
    snapshot_lsn = snapshot["lsn"] if snapshot is not None else 0
    replay = replay_plan(records, snapshot_lsn)
    return {
        "state_dir": str(state_dir),
        "journal": {
            "records": journal_drop["records"],
            "last_lsn": journal_drop["last_lsn"],
            "dropped_lines": journal_drop["dropped_lines"],
            "dropped_bytes": journal_drop["dropped_bytes"],
            "drop_reason": journal_drop["reason"],
            "kinds": dict(sorted(kinds.items())),
        },
        "snapshots": snapshots,
        "snapshots_rejected": rejected,
        "recovery": {
            "scope": snapshot["scope"] if snapshot is not None else "",
            "snapshot_lsn": snapshot_lsn,
            "replay_records": len(replay),
            "replay_ticks": sum(1 for r in replay if r["kind"] == "cmd_tick"),
        },
        "in_flight_migrations": classify_in_flight_migrations(records),
    }
