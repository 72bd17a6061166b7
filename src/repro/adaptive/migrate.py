"""Live operator migration: the pause-drain-move-resume cutover.

Once the re-optimization policy approves a migration, the
:class:`Migrator` executes it in two halves:

1. **The cutover protocol**, replayed on the discrete-event simulator
   the deployment protocol already uses.  The query's sink acts as the
   migration coordinator and drives each *moved* operator (the
   :class:`~repro.adaptive.diff.MigrationDiff` already excluded kept
   operators and reused views) through three barriered phases:

   * *pause*: the coordinator asks every old host to pause its
     operator; a paused operator stops emitting while in-flight tuples
     drain (:data:`DRAIN_SECONDS`), then the host acknowledges;
   * *transfer*: once every operator is paused, each old host ships the
     operator's serialized window state to the new host (transmission
     time proportional to the state size); new hosts acknowledge
     receipt to the coordinator;
   * *resume*: once every state arrived, the coordinator resumes the
     rebuilt operators on their new hosts and collects final acks.

   Like the deployment protocol, the cutover delivers every message
   exactly once; it times the migration.

2. **The atomic swap** in the control plane: undeploy the old
   deployment, deploy the candidate, re-sync derived-stream
   advertisements (moved views must re-advertise from their new
   nodes).  A candidate that fails to install rolls the old deployment
   straight back -- so a query is always either fully on its old
   deployment or fully on its new one, never split.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.errors import DeploymentError
from repro.network.graph import Network
from repro.obs.tracer import current_causal
from repro.adaptive.diff import MigrationDiff, OperatorMove
from repro.query.deployment import Deployment
from repro.runtime.messages import (
    PauseAck,
    PauseCommand,
    ResumeAck,
    ResumeCommand,
    StateAck,
    StateChunk,
    TransferCommand,
)
from repro.runtime.simulator import SimNode, Simulator

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


class _CutoverContext:
    def __init__(
        self,
        query_name: str,
        moves: list[OperatorMove],
        coordinator: int,
    ) -> None:
        self.query_name = query_name
        self.moves = moves
        self.coordinator = coordinator
        self.acks: Counter[type] = Counter()
        self.pause_done_time: float | None = None
        self.transfer_done_time: float | None = None
        self.finish_time: float | None = None


class _CutoverActor(SimNode):
    """One actor per physical node; plays coordinator/old-host/new-host
    as the message flow demands (a node can be all three at once)."""

    def __init__(self, node_id: int, ctx: _CutoverContext) -> None:
        super().__init__(node_id)
        self.ctx = ctx

    # -- coordinator phase transitions ---------------------------------
    def begin(self) -> None:
        """Issue the pause commands (called on the coordinator)."""
        ctx = self.ctx
        for move in ctx.moves:
            self.send(move.old_node, PauseCommand(ctx.query_name, move.label))

    def _phase_done(self, ack) -> bool:
        """Count one ack; whether it completes its phase (the barrier)."""
        self.ctx.acks[type(ack)] += 1
        return self.ctx.acks[type(ack)] == len(self.ctx.moves)

    # -- message handling ----------------------------------------------
    def on_message(self, src: int, message) -> None:
        assert self.sim is not None
        ctx = self.ctx
        label = message.operator_label
        if isinstance(message, PauseCommand):
            ack = PauseAck(ctx.query_name, label)
            self.sim.schedule(DRAIN_SECONDS, lambda: self.send(ctx.coordinator, ack))
        elif isinstance(message, PauseAck):
            if self._phase_done(message):
                ctx.pause_done_time = self.sim.now
                for move in ctx.moves:
                    self.send(
                        move.old_node,
                        TransferCommand(
                            ctx.query_name, move.label, move.new_node, move.state_bytes
                        ),
                    )
        elif isinstance(message, TransferCommand):
            self.send(
                message.dest,
                StateChunk(ctx.query_name, label, message.nbytes),
                extra_delay=message.nbytes * SECONDS_PER_BYTE,
            )
        elif isinstance(message, StateChunk):
            self.send(ctx.coordinator, StateAck(ctx.query_name, label))
        elif isinstance(message, StateAck):
            if self._phase_done(message):
                ctx.transfer_done_time = self.sim.now
                for move in ctx.moves:
                    self.send(move.new_node, ResumeCommand(ctx.query_name, move.label))
        elif isinstance(message, ResumeCommand):
            self.send(ctx.coordinator, ResumeAck(ctx.query_name, label))
        elif isinstance(message, ResumeAck):
            if self._phase_done(message):
                ctx.finish_time = self.sim.now
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message {message!r}")


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
        timeline: The simulated cutover (``None`` when cutover
            simulation is disabled or nothing physically moved).
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
    causal tree rooted at ``migrate:<query name>``; with none installed
    the cutover is byte-identical to an untraced build.
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
        """Replay the cutover protocol; return its timeline."""
        if not diff.moved:
            return CutoverTimeline(
                query_name=diff.query,
                started=start_time,
                completed=start_time,
            )
        ctx = _CutoverContext(diff.query, diff.moved, coordinator)
        sim = Simulator(self.network)
        for node in self.network.nodes():
            sim.register(_CutoverActor(node, ctx))
        sim.now = start_time
        actor = sim.node(coordinator)
        assert isinstance(actor, _CutoverActor)
        trace = current_causal()
        if trace is not None:
            trace.new_trace(
                f"migrate:{diff.query}",
                node=coordinator,
                operators=len(diff.moved),
                state_bytes=diff.total_state_bytes,
            )
        sim.schedule(0.0, actor.begin)
        if trace is not None:
            trace.activate(None)
        sim.run()
        return CutoverTimeline(
            query_name=diff.query,
            started=start_time,
            completed=ctx.finish_time,
            pause_done=ctx.pause_done_time,
            transfer_done=ctx.transfer_done_time,
            messages=sim.messages_delivered,
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
