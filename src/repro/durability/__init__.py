"""Durable control plane: write-ahead journal, snapshots, recovery.

The layer follows the repo's opt-in contract (same as telemetry,
resilience and adaptivity): ``durability=None`` leaves the service and
fleet *byte-identical* to a build without the layer -- no journal, no
instruments, no behavioural change -- which the regression tests
enforce.  Passing a :class:`DurabilityConfig` arms the full pipeline:

* every externally driven mutation (submit/tick/retire/node
  failure/rejoin/observe/rebalance) is journaled as a **command record
  before execution**;
* execution appends **marker records** (admission verdicts, deploys,
  parks, retires, migration barrier phases, federation publications,
  tenant accounting) that give crash points a boundary between every
  two state changes;
* every ``snapshot_interval`` ticks the full control-plane state is
  snapshotted as a ``repro.state`` envelope keyed by journal LSN (the
  capture re-encodes only what changed since the previous snapshot, and
  the file refers to the long sections a snapshot still on disk holds);
* :func:`repro.durability.recovery.recover` rebuilds a crashed
  controller from the newest valid snapshot plus a deterministic
  replay of the command suffix.

See ``docs/durability.md`` for the journal format, snapshot cadence and
the crash-point matrix the chaos harness proves convergence over.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.durability.journal import (
    COMMAND_KINDS,
    JOURNAL_FILE,
    MARKER_KINDS,
    Journal,
    SimulatedCrash,
    repair_journal,
    scan_journal,
)
from repro.durability.snapshot import (
    SNAPSHOT_KIND,
    SnapshotWriter,
    list_snapshots,
    load_latest,
)
from repro.obs.tracer import count


@dataclass(frozen=True)
class DurabilityConfig:
    """Configuration for the durability layer.

    Attributes:
        state_dir: Directory holding ``journal.jsonl``, snapshots and
            persisted flight-recorder bundles.
        snapshot_interval: Ticks between snapshots (snapshots are only
            taken at tick boundaries, so every command record past a
            snapshot's LSN is replayable whole).
        fsync: Fsync the journal after every append.

    :data:`~repro.durability.snapshot.RETAIN_SNAPSHOTS` snapshots are
    kept on disk.
    """

    state_dir: str
    snapshot_interval: int = 25
    fsync: bool = False

    def __post_init__(self) -> None:
        if not self.state_dir:
            raise ValueError("durability needs a state_dir")
        if self.snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")


class Durability:
    """One journal + snapshot pipeline bound to one control plane.

    Built from a :class:`DurabilityConfig` and bound by the service or
    fleet constructor via :meth:`bind_service` / :meth:`bind_fleet`.
    The control plane calls :meth:`command` before executing an
    externally driven mutation, :meth:`marker` at interesting points
    during execution, and :meth:`maybe_snapshot` at tick boundaries.
    All three are no-ops while recovery replay is in progress.
    """

    def __init__(self, config: DurabilityConfig) -> None:
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.journal = Journal(self.state_dir / JOURNAL_FILE, fsync=config.fsync)
        self.scope = ""
        self.snapshots_total = 0
        self.recovered = False
        # Command records and ticks the last recovery re-executed.
        self.replayed_records = 0
        self.replayed_ticks = 0
        self._controller: Any = None
        self._ticks_since_snapshot = 0

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind_service(self, service) -> None:
        """Attach to a standalone :class:`StreamQueryService`."""
        from repro.durability.state import capture_service

        self._bind("service", service, capture_service)

    def bind_fleet(self, fleet) -> None:
        """Attach to a :class:`FleetController` (fleet-scope journal).

        Shard sub-services stay undurable on purpose: the fleet journals
        at its own boundary and replays through the same shard code
        paths, so per-shard journals would only record every mutation
        twice.
        """
        from repro.durability.state import capture_fleet

        self._bind("fleet", fleet, capture_fleet)

    def _bind(self, scope: str, controller, capture) -> None:
        from repro.durability.state import FragmentMemo

        # A layer that cannot write its own snapshot section would lose
        # its state in a crash: refuse to arm over it, now.  A routing
        # policy owes restore() only if it remembers something.
        owed = [
            (name, layer, ("capture", "restore"))
            for owner in (controller, *getattr(controller, "shards", ()))
            for name, layer in owner.layers()
        ]
        router = getattr(controller, "router", None)
        if router is not None:
            policy, methods = router.policy, ("capture",)
            if callable(getattr(policy, "capture", None)) and policy.capture() is not None:
                methods += ("restore",)
            owed.append(("router.policy", policy, methods))
        for name, layer, methods in owed:
            for method in methods:
                if not callable(getattr(layer, method, None)):
                    raise TypeError(
                        f"durability= cannot be armed over the {name!r} "
                        f"layer: {type(layer).__name__} has no {method}()"
                    )
        self.scope = scope
        self._controller = controller
        self._capture = capture
        self._memo = FragmentMemo()
        self._writer = SnapshotWriter(self.state_dir)
        self._bind_instruments(controller.registry)
        self._persist_flight(getattr(controller, "telemetry", None))

    def _persist_flight(self, telemetry) -> None:
        # Satellite: alert-frozen debug bundles survive a crash by
        # landing under <state_dir>/flight as they are cut.
        recorder = getattr(telemetry, "recorder", None)
        if recorder is not None:
            recorder.persist_dir = self.state_dir / "flight"

    def _bind_instruments(self, registry) -> None:
        # This process's work: ``repro.obs.timeseries.PROCESS_SERIES``.
        for name, help, read in (
            (
                "durability_journal_records_total",
                "Journal records appended (commands + markers)",
                lambda: self.journal.lsn,
            ),
            (
                "durability_journal_bytes_total",
                "Bytes appended to the journal",
                lambda: self.journal.bytes_total,
            ),
            (
                "durability_journal_fsyncs_total",
                "Journal fsync calls (0 unless fsync is configured)",
                lambda: self.journal.fsyncs_total,
            ),
            ("durability_snapshots_total", "State snapshots written", lambda: self.snapshots_total),
            (
                "durability_recovery_replayed_records",
                "Command records re-executed by the last recovery",
                lambda: self.replayed_records,
            ),
            (
                "durability_recovery_ticks",
                "Tick commands re-executed by the last recovery",
                lambda: self.replayed_ticks,
            ),
        ):
            registry.counter(name, help, read)

    # ------------------------------------------------------------------
    # Journal hooks (called by the control plane)
    # ------------------------------------------------------------------
    def command(self, kind: str, time: float, data: Any) -> int | None:
        """Journal one command record *before* the mutation executes."""
        assert kind in COMMAND_KINDS, kind
        return self._append(kind, time, data)

    def marker(self, kind: str, time: float, data: Any) -> int | None:
        """Journal one marker record mid-execution (never replayed)."""
        assert kind in MARKER_KINDS, kind
        return self._append(kind, time, data)

    def _append(self, kind: str, time: float, data: Any) -> int | None:
        if self.journal.replaying:
            return None
        return self.journal.append(kind, time, data)

    def maybe_snapshot(self, time: float) -> Path | None:
        """Count one tick boundary; snapshot when the interval elapses."""
        if self.journal.replaying:
            return None
        self._ticks_since_snapshot += 1
        if self._ticks_since_snapshot < self.config.snapshot_interval:
            return None
        return self.snapshot(time)

    def snapshot(self, time: float) -> Path:
        """Capture and write one snapshot at the current journal LSN.

        The first snapshot of a process encodes and writes everything;
        each later one re-encodes only the items that changed since (the
        memo then holds about one snapshot body of text) and writes only
        the sections that changed, referring to the others.
        """
        self._ticks_since_snapshot = 0
        lsn = self.journal.lsn
        state = self._capture(self._controller, self._memo)
        count("snapshot_items_encoded", self._memo.roll())
        path, written = self._writer.write(
            lsn, self.scope, state, time=time, journal=self.journal
        )
        count("snapshot_bytes_written", written)
        self.snapshots_total += 1
        self.marker("snapshot", time, {"lsn": lsn, "file": path.name})
        return path

    # ------------------------------------------------------------------
    # Crash injection and recovery bookkeeping
    # ------------------------------------------------------------------
    def arm(self, plan_or_points) -> int:
        """Arm seeded crash points from a fault plan (or an iterable).

        Arming is explicit and one-shot: the chaos harness arms only
        the run meant to die, so the recovered controller does not
        immediately re-crash on the same point.  Returns the number of
        points armed.
        """
        from repro.resilience.faults import CrashPoint, FaultPlan

        if isinstance(plan_or_points, FaultPlan):
            points: Iterable[Any] = plan_or_points.of_kind(CrashPoint)
        else:
            points = list(plan_or_points)
        points = list(points)
        self.journal.arm(points)
        return len(points)

    def note_recovery(self, replayed_records: int, replayed_ticks: int) -> None:
        """Record recovery metrics after a successful :func:`recover`."""
        self.recovered = True
        self.replayed_records = replayed_records
        self.replayed_ticks = replayed_ticks

    def summary(self) -> dict[str, Any]:
        """Counters for replay summaries and the CLI."""
        return {
            "scope": self.scope,
            "state_dir": str(self.state_dir),
            "journal_records": self.journal.lsn,
            "journal_lsn": self.journal.lsn,
            "journal_bytes": self.journal.bytes_total,
            "journal_fsyncs": self.journal.fsyncs_total,
            "snapshots": self.snapshots_total,
            "recovered": self.recovered,
        }


def ensure_durability(durability: DurabilityConfig | None) -> Durability | None:
    """Normalize the ``durability=`` constructor argument.

    ``None`` stays ``None`` (the layer is fully absent); a config is
    wrapped in a fresh :class:`Durability`.
    """
    if durability is None:
        return None
    if isinstance(durability, DurabilityConfig):
        return Durability(durability)
    raise TypeError(
        f"durability must be None or a DurabilityConfig, "
        f"got {type(durability).__name__}"
    )


from repro.durability.recovery import (  # noqa: E402  (cycle-free tail import)
    RecoveryReport,
    inspect_state_dir,
    recover,
)

__all__ = [
    "COMMAND_KINDS",
    "JOURNAL_FILE",
    "MARKER_KINDS",
    "SNAPSHOT_KIND",
    "Durability",
    "DurabilityConfig",
    "Journal",
    "RecoveryReport",
    "SimulatedCrash",
    "ensure_durability",
    "inspect_state_dir",
    "list_snapshots",
    "load_latest",
    "recover",
    "repair_journal",
    "scan_journal",
]
