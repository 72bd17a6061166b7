"""Live operator migration: the pause-drain-move-resume cutover.

Once the re-optimization policy approves a migration, the
:class:`Migrator` executes it in two halves:

1. **The cutover protocol**, timed the way the deployment protocol is
   (:mod:`repro.runtime.protocol`).  The query's sink acts as the
   migration coordinator and drives each *moved* operator (the
   :class:`~repro.adaptive.diff.MigrationDiff` already excluded kept
   operators and reused views) through three barriered phases:

   * *pause*: the coordinator asks every old host to pause its
     operator; a paused operator stops emitting while in-flight tuples
     drain (:data:`DRAIN_SECONDS`), then the host acknowledges;
   * *transfer*: once every operator is paused, the coordinator asks
     each old host to ship the operator's serialized window state to
     the new host (transmission time proportional to the state size);
     new hosts acknowledge receipt to the coordinator;
   * *resume*: once every state arrived, the coordinator resumes the
     rebuilt operators on their new hosts and collects final acks.

   Every message is delivered exactly once, so each barrier is the
   latest of one round trip per moved operator, and a cutover sends 7
   messages per moved operator.

2. **The atomic swap** in the control plane: undeploy the old
   deployment, deploy the candidate, re-sync derived-stream
   advertisements (moved views must re-advertise from their new
   nodes).  A candidate that fails to install rolls the old deployment
   straight back -- so a query is always either fully on its old
   deployment or fully on its new one, never split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import DeploymentError
from repro.network.graph import Network
from repro.obs.tracer import count, current_causal
from repro.adaptive.diff import MigrationDiff
from repro.query.deployment import Deployment
from repro.runtime.protocol import _Event, _Replay

#: Virtual time a pausing operator waits for in-flight tuples to clear
#: before acknowledging.
DRAIN_SECONDS = 0.01
#: State-transfer transmission speed (virtual seconds per byte).
SECONDS_PER_BYTE = 1e-6


@dataclass
class CutoverTimeline:
    """Timing of one simulated cutover.

    Attributes:
        query_name: The migrating query.
        started: Virtual time the coordinator issued the first pause.
        completed: Virtual time of the final resume ack.
        pause_done: When every operator was paused and drained
            (``None`` when nothing moved).
        transfer_done: When every window state had arrived (``None``
            when nothing moved).
        messages: Protocol messages delivered.
        bytes_moved: Total window state shipped.
        operators_moved: Operators that changed nodes.
    """

    query_name: str
    started: float
    completed: float
    pause_done: float | None = None
    transfer_done: float | None = None
    messages: int = 0
    bytes_moved: float = 0.0
    operators_moved: int = 0

    @property
    def duration(self) -> float:
        """Virtual seconds from first pause to final resume ack."""
        return self.completed - self.started


def _barrier(acks: list[_Event]) -> _Event:
    """The ack that completes a phase: the last one delivered."""
    return max(acks, key=lambda ack: ack.key)


@dataclass
class MigrationOutcome:
    """What one approved migration actually did.

    Attributes:
        query: The migrating query.
        committed: Whether the query now runs the candidate deployment.
        reason: Why it committed or aborted.
        old_cost: The query's cost before (fresh statistics).
        new_cost: The query's cost after (equals ``old_cost`` on abort).
        operators_moved: Operators that changed nodes (0 on abort).
        bytes_moved: Window state shipped (0 on abort).
        rolled_back: Whether a failed candidate install was rolled back.
        timeline: The timed cutover (``None`` when nothing physically
            moved).
    """

    query: str
    committed: bool
    reason: str
    old_cost: float = 0.0
    new_cost: float = 0.0
    operators_moved: int = 0
    bytes_moved: float = 0.0
    rolled_back: bool = False
    timeline: CutoverTimeline | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form."""
        out = {
            "query": self.query,
            "committed": self.committed,
            "reason": self.reason,
            "old_cost": self.old_cost,
            "new_cost": self.new_cost,
            "operators_moved": self.operators_moved,
            "bytes_moved": self.bytes_moved,
            "rolled_back": self.rolled_back,
        }
        if self.timeline is not None:
            out["cutover_seconds"] = self.timeline.duration
        return out


class Migrator:
    """Executes approved migrations atomically, one query at a time.

    Args:
        network: The physical network (message delays for the cutover);
            state ships at :data:`SECONDS_PER_BYTE`.

    Under ``with causal_tracing(tracer):`` every cutover forms one
    causal tree rooted at ``migrate:<query name>``.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        #: Optional :class:`~repro.durability.Durability`; when set the
        #: migrator journals begin / barrier-phase / commit / abort
        #: markers so crash points can land mid-cutover and recovery can
        #: report exactly how far an in-flight migration got.
        self.durability = None

    def _mark(self, kind: str, now: float, data: dict) -> None:
        if self.durability is not None:
            self.durability.marker(kind, now, data)

    # ------------------------------------------------------------------
    def simulate_cutover(
        self,
        diff: MigrationDiff,
        coordinator: int,
        start_time: float = 0.0,
    ) -> CutoverTimeline:
        """Time the cutover protocol; return its timeline."""
        if not diff.moved:
            return CutoverTimeline(
                query_name=diff.query,
                started=start_time,
                completed=start_time,
            )
        tracer = current_causal()
        root = None
        if tracer is not None:
            root = tracer.new_trace(
                f"migrate:{diff.query}",
                node=coordinator,
                operators=len(diff.moved),
                state_bytes=diff.total_state_bytes,
            )
        replay, c = _Replay(self.network), coordinator
        begin, acks = _Event(start_time, root), []
        for move in diff.moved:
            pause = replay.send(begin, "PauseCommand", c, move.old_node)
            drained = pause.later(DRAIN_SECONDS)
            acks.append(replay.send(drained, "PauseAck", move.old_node, c))
        paused, acks = _barrier(acks), []
        for move in diff.moved:
            command = replay.send(paused, "TransferCommand", c, move.old_node)
            chunk = replay.send(
                command, "StateChunk", move.old_node, move.new_node,
                extra=move.state_bytes * SECONDS_PER_BYTE,
            )
            acks.append(replay.send(chunk, "StateAck", move.new_node, c))
        transferred, acks = _barrier(acks), []
        for move in diff.moved:
            resume = replay.send(transferred, "ResumeCommand", c, move.new_node)
            acks.append(replay.send(resume, "ResumeAck", move.new_node, c))
        resumed = _barrier(acks)
        count("messages", len(replay.hops))
        if tracer is not None:
            replay.record()
        return CutoverTimeline(
            query_name=diff.query,
            started=start_time,
            completed=resumed.time,
            pause_done=paused.time,
            transfer_done=transferred.time,
            messages=len(replay.hops),
            bytes_moved=diff.total_state_bytes,
            operators_moved=len(diff.moved),
        )

    # ------------------------------------------------------------------
    def execute(
        self,
        engine,
        old: Deployment,
        candidate: Deployment,
        diff: MigrationDiff,
        ads=None,
        now: float = 0.0,
    ) -> MigrationOutcome:
        """Run the cutover and, if it commits, swap the deployments.

        Args:
            engine: The :class:`~repro.runtime.engine.FlowEngine`
                running the query.
            old: The live deployment (must be deployed in ``engine``).
            candidate: The re-planned deployment replacing it.
            diff: Their minimal migration.
            ads: Optional advertisement index to re-sync (moved derived
                streams re-advertise from their new nodes).
            now: Control-plane time (also the cutover's virtual start).

        The swap is atomic per query: a candidate that fails to install
        rolls the old deployment back.
        """
        name = old.query.name
        old_cost = engine.state.query_cost(name)
        self._mark(
            "migrate_begin",
            now,
            {
                "query": name,
                "operators": len(diff.moved),
                "state_bytes": diff.total_state_bytes,
            },
        )
        timeline: CutoverTimeline | None = None
        if diff.moved:
            timeline = self.simulate_cutover(diff, old.query.sink, start_time=now)
            for phase in ("pause", "transfer", "resume"):
                self._mark("migrate_phase", now, {"query": name, "phase": phase})
        self._mark("migrate_phase", now, {"query": name, "phase": "swap"})
        engine.undeploy(name, time=now)
        try:
            engine.deploy(candidate, time=now)
        except DeploymentError as exc:
            # Roll back: the old deployment was live a moment ago, so it
            # re-installs cleanly against the same state.
            engine.deploy(old, time=now)
            if ads is not None:
                ads.sync_from_state(engine.state)
            self._mark(
                "migrate_abort",
                now,
                {"query": name, "reason": "candidate failed to install"},
            )
            return MigrationOutcome(
                query=name,
                committed=False,
                reason=f"candidate failed to install, rolled back: {exc}",
                old_cost=old_cost,
                new_cost=old_cost,
                rolled_back=True,
                timeline=timeline,
            )
        if ads is not None:
            ads.sync_from_state(engine.state)
        self._mark(
            "migrate_commit",
            now,
            {"query": name, "operators": len(diff.moved)},
        )
        return MigrationOutcome(
            query=name,
            committed=True,
            reason="cutover committed",
            old_cost=old_cost,
            new_cost=engine.state.query_cost(name),
            operators_moved=len(diff.moved),
            bytes_moved=diff.total_state_bytes,
            timeline=timeline,
        )
