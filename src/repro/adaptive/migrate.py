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

   Under fault injection the protocol reuses the deployment protocol's
   reliable-delivery discipline: delivery is tracked per message
   identity, receivers re-acknowledge duplicates, and senders
   retransmit at the retry policy's backoff offsets.  A fault window
   that outlasts the retransmission budget leaves the protocol
   incomplete -- which the migrator treats as an *abort*.

2. **The atomic swap** in the control plane, performed only after the
   protocol committed: undeploy the old deployment, deploy the
   candidate, re-sync derived-stream advertisements (moved views must
   re-advertise from their new nodes).  An aborted protocol never
   reaches the swap, and a candidate that fails to install rolls the
   old deployment straight back -- so a query is always either fully on
   its old deployment or fully on its new one, never split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import DeploymentError
from repro.network.graph import Network
from repro.obs.tracer import current_causal
from repro.adaptive.diff import MigrationDiff, OperatorMove
from repro.query.deployment import Deployment
from repro.resilience.faults import NULL_FAULTS
from repro.resilience.policy import RetryPolicy
from repro.runtime.messages import (
    PauseAck,
    PauseCommand,
    ResumeAck,
    ResumeCommand,
    StateAck,
    StateChunk,
    TransferCommand,
)
from repro.runtime.simulator import ReliableNode, ReliableRun, Simulator

#: Default retransmission policy for fault-injected cutovers; matches
#: the deployment protocol's deterministic backoff.
MIGRATION_RETRY = RetryPolicy(
    max_attempts=5, base_delay=0.05, multiplier=2.0, max_delay=1.0,
    jitter=0.0, attempt_timeout=None,
)
#: Virtual time a pausing operator waits for in-flight tuples to clear
#: before acknowledging.
DRAIN_SECONDS = 0.01


@dataclass
class CutoverTimeline:
    """Timing of one simulated cutover.

    Attributes:
        query_name: The migrating query.
        started: Virtual time the coordinator issued the first pause.
        completed: Virtual time of the final resume ack (``None`` when
            the protocol never completed -- the migration aborts).
        pause_done: When every operator was paused and drained.
        transfer_done: When every window state had arrived.
        messages: Protocol messages delivered.
        retransmissions: Messages re-sent by the reliable-delivery
            layer (0 without fault injection).
        bytes_moved: Total window state shipped.
        operators_moved: Operators that changed nodes.
    """

    query_name: str
    started: float
    completed: float | None = None
    pause_done: float | None = None
    transfer_done: float | None = None
    messages: int = 0
    retransmissions: int = 0
    bytes_moved: float = 0.0
    operators_moved: int = 0

    @property
    def committed(self) -> bool:
        """Whether the protocol ran to completion."""
        return self.completed is not None

    @property
    def duration(self) -> float:
        """Virtual seconds from first pause to final resume ack."""
        if self.completed is None:
            return float("inf")
        return self.completed - self.started


class _CutoverContext(ReliableRun):
    def __init__(
        self,
        query_name: str,
        moves: list[OperatorMove],
        coordinator: int,
        faults,
        retry: RetryPolicy | None,
        seconds_per_byte: float,
    ) -> None:
        super().__init__(faults, retry)
        self.query_name = query_name
        self.moves = {m.label: m for m in moves}
        self.coordinator = coordinator
        self.seconds_per_byte = seconds_per_byte
        self.paused: set[str] = set()
        self.pause_acked: set[str] = set()
        self.state_acked: set[str] = set()
        self.resume_acked: set[str] = set()
        self.transfer_started = False
        self.resume_started = False
        self.pause_done_time: float | None = None
        self.transfer_done_time: float | None = None
        self.finish_time: float | None = None


class _CutoverActor(ReliableNode):
    """One actor per physical node; plays coordinator/old-host/new-host
    as the message flow demands (a node can be all three at once)."""

    ctx: _CutoverContext

    # -- coordinator phase transitions ---------------------------------
    def begin(self) -> None:
        """Issue the pause commands (called on the coordinator)."""
        ctx = self.ctx
        for label, move in ctx.moves.items():
            self.reliable_send(
                move.old_node,
                PauseCommand(ctx.query_name, label),
                delivered=lambda l=label: l in ctx.pause_acked,
            )

    def _maybe_start_transfer(self) -> None:
        ctx = self.ctx
        if ctx.transfer_started or len(ctx.pause_acked) < len(ctx.moves):
            return
        ctx.transfer_started = True
        ctx.pause_done_time = self.sim.now
        for label, move in ctx.moves.items():
            self.reliable_send(
                move.old_node,
                TransferCommand(ctx.query_name, label, move.new_node, move.state_bytes),
                delivered=lambda l=label: l in ctx.state_acked,
            )

    def _maybe_start_resume(self) -> None:
        ctx = self.ctx
        if ctx.resume_started or len(ctx.state_acked) < len(ctx.moves):
            return
        ctx.resume_started = True
        ctx.transfer_done_time = self.sim.now
        for label, move in ctx.moves.items():
            self.reliable_send(
                move.new_node,
                ResumeCommand(ctx.query_name, label),
                delivered=lambda l=label: l in ctx.resume_acked,
            )

    # -- message handling ----------------------------------------------
    def on_message(self, src: int, message) -> None:
        assert self.sim is not None
        ctx = self.ctx
        if isinstance(message, PauseCommand):
            label = message.operator_label
            if label in ctx.paused:
                # Duplicate command: already drained, re-ack (the earlier
                # ack may have been lost; acks are deduplicated).
                self.send(ctx.coordinator, PauseAck(ctx.query_name, label))
                return

            def drained() -> None:
                ctx.paused.add(label)
                self.send(ctx.coordinator, PauseAck(ctx.query_name, label))

            self.sim.schedule(DRAIN_SECONDS, drained)
        elif isinstance(message, PauseAck):
            ctx.pause_acked.add(message.operator_label)
            self._maybe_start_transfer()
        elif isinstance(message, TransferCommand):
            # Re-ship on duplicates: the chunk (or its ack) may have been
            # lost, and the new host deduplicates by operator identity.
            self.send(
                message.dest,
                StateChunk(ctx.query_name, message.operator_label, message.nbytes),
                extra_delay=message.nbytes * ctx.seconds_per_byte,
            )
        elif isinstance(message, StateChunk):
            self.send(ctx.coordinator, StateAck(ctx.query_name, message.operator_label))
        elif isinstance(message, StateAck):
            ctx.state_acked.add(message.operator_label)
            self._maybe_start_resume()
        elif isinstance(message, ResumeCommand):
            self.send(ctx.coordinator, ResumeAck(ctx.query_name, message.operator_label))
        elif isinstance(message, ResumeAck):
            ctx.resume_acked.add(message.operator_label)
            if len(ctx.resume_acked) >= len(ctx.moves) and ctx.finish_time is None:
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
        rolled_back: Whether a failed candidate install was rolled back
            (as opposed to the protocol aborting before the swap).
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
            out["cutover_seconds"] = (
                self.timeline.duration if self.timeline.committed else None
            )
            out["retransmissions"] = self.timeline.retransmissions
        return out


class Migrator:
    """Executes approved migrations atomically, one query at a time.

    Args:
        network: The physical network (message delays for the cutover).
        faults: Fault injector; its middleware intercepts cutover
            messages exactly as it does deployment-protocol messages.
        retry: Retransmission policy under faults
            (:data:`MIGRATION_RETRY` when omitted).
        seconds_per_byte: State-transfer transmission speed.

    Under ``with causal_tracing(tracer):`` every cutover forms one
    causal tree rooted at ``migrate:<query name>``; with none installed
    the cutover is byte-identical to an untraced build.
    """

    def __init__(
        self,
        network: Network,
        faults=NULL_FAULTS,
        retry: RetryPolicy | None = None,
        seconds_per_byte: float = 1e-6,
    ) -> None:
        self.network = network
        self.faults = faults
        self.retry = retry if retry is not None else MIGRATION_RETRY
        self.seconds_per_byte = seconds_per_byte
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
        """Replay the cutover protocol; return its timeline.

        The timeline's :attr:`~CutoverTimeline.committed` reports
        whether the protocol completed -- under fault injection an
        outage can outlast the retransmission budget, in which case the
        migration must abort.
        """
        if not diff.moved:
            return CutoverTimeline(
                query_name=diff.query,
                started=start_time,
                completed=start_time,
            )
        ctx = _CutoverContext(
            diff.query, diff.moved, coordinator,
            faults=self.faults,
            retry=self.retry if self.faults.enabled else None,
            seconds_per_byte=self.seconds_per_byte,
        )
        sim = Simulator(self.network)
        if self.faults.enabled:
            # The cutover is control-plane traffic: a coordinator-outage
            # window (a wedged process refusing RPCs) starves messages
            # to and from the node, on top of whatever the injector's
            # own middleware (storms, partitions) does.
            def outage_guard(src: int, dst: int, message, now: float):
                if self.faults.unreachable(dst, now) or self.faults.unreachable(src, now):
                    return ("drop", "outage")
                return None

            sim.add_send_middleware(outage_guard)
        self.faults.install(sim)
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
            retransmissions=ctx.retransmissions,
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

        The swap is atomic per query: an incomplete protocol aborts
        before touching the engine, and a candidate that fails to
        install rolls the old deployment back.
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
            if timeline.pause_done is not None:
                self._mark("migrate_phase", now, {"query": name, "phase": "pause"})
            if timeline.transfer_done is not None:
                self._mark("migrate_phase", now, {"query": name, "phase": "transfer"})
            if timeline.completed is not None:
                self._mark("migrate_phase", now, {"query": name, "phase": "resume"})
            if not timeline.committed:
                self._mark(
                    "migrate_abort",
                    now,
                    {"query": name, "reason": "cutover protocol incomplete"},
                )
                return MigrationOutcome(
                    query=name,
                    committed=False,
                    reason=(
                        "cutover protocol incomplete (fault injection exhausted "
                        "the retransmission budget); old deployment untouched"
                    ),
                    old_cost=old_cost,
                    new_cost=old_cost,
                    timeline=timeline,
                )
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
