"""The event-driven replays the deployment and cutover timelines were
computed with, kept as the oracle for the arithmetic ones: one actor per
node on the event-queue simulator.  A send counts one ``messages`` op,
arrives at ``(now + delay) + extra_delay`` and, under a causal tracer,
records a hop under the cause active at the sender.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from types import SimpleNamespace

from repro.adaptive.migrate import DRAIN_SECONDS, SECONDS_PER_BYTE, CutoverTimeline
from repro.obs.tracer import count, current_causal
from repro.runtime.protocol import DEFAULT_SECONDS_PER_PLAN, DeploymentTimeline
from repro.runtime.simulator import SimNode, Simulator

#: A protocol message: its kind and what it is about (a task index or
#: an operator move).
Message = namedtuple("Message", "kind about")


class OracleSimulator(Simulator):
    """The simulator with per-message transmission time and causal hops."""

    def __init__(self, network) -> None:
        super().__init__(network)
        self.tracer = current_causal()
        self.active = None
        self.messages_delivered = 0

    def schedule(self, delay, action) -> None:
        cause = self.active
        super().schedule(delay, lambda: self._under(cause, action))

    def _under(self, cause, action) -> None:
        previous, self.active = self.active, cause
        action()
        self.active = previous

    def send(self, src, dst, message, extra_delay=0.0) -> None:
        delay = self.network.path_delay(src, dst) if src != dst else 0.0
        count("messages")
        hop = self.tracer and self.tracer.record_hop(
            message.kind, src, dst, time=self.now, parent=self.active, link_delay=delay,
            link_cost=float(self.network.cost_matrix()[src, dst]) if src != dst else 0.0,
        )

        def deliver() -> None:
            self.messages_delivered += 1
            if hop is not None:
                hop.end = self.now
            self._under(hop, lambda: self._nodes[dst].on_message(src, message))

        self._queue.push(self.now + delay + extra_delay, deliver)


class _Actor(SimNode):
    def __init__(self, node_id, ctx) -> None:
        super().__init__(node_id)
        self.ctx = ctx

    def send_to(self, dst, kind, about, extra_delay=0.0) -> None:
        self.sim.send(self.node_id, dst, Message(kind, about), extra_delay)


class _ProtocolActor(_Actor):
    def on_message(self, src, message) -> None:
        ctx, sim, task = self.ctx, self.sim, message.about
        if message.kind in ("QuerySubmit", "PlanRequest"):
            entry = ctx.trace[task]

            def finish_planning() -> None:
                for child in ctx.children[task]:
                    self.send_to(ctx.trace[child]["node"], "PlanRequest", child)
                for op_node in entry.get("deploy_nodes", ()):
                    self.send_to(op_node, "DeployCommand", task)
                self.send_to(ctx.sink, "_TaskDone", task)

            sim.schedule(entry["plans"] * ctx.seconds_per_plan, finish_planning)
        elif message.kind == "DeployCommand":
            self.send_to(ctx.sink, "DeployAck", task)
        else:
            ctx.arrived += 1
            if ctx.arrived == ctx.expected:
                ctx.finish_time = sim.now


def simulate_deployment(network, deployment, seconds_per_plan=DEFAULT_SECONDS_PER_PLAN, rates=None):
    """The event-driven replay of ``repro.runtime.simulate_deployment``."""
    tasks = deployment.stats["task_trace"]
    parents = [e["parent"] for e in tasks]
    ctx = SimpleNamespace(
        trace=tasks, name=deployment.query.name, sink=deployment.query.sink,
        seconds_per_plan=seconds_per_plan, arrived=0, finish_time=None,
        children=[[c for c, p in enumerate(parents) if p == i] for i in range(len(tasks))],
        acks=sum(len(e.get("deploy_nodes", ())) for e in tasks),
    )
    ctx.expected = ctx.acks + len(tasks)
    sim = OracleSimulator(network)
    for node in network.nodes():
        sim.register(_ProtocolActor(node, ctx))
    sink, trace = ctx.sink, sim.tracer
    root = None
    if trace is not None:
        root = trace.new_trace(
            f"deploy:{ctx.name}", node=sink,
            optimizer=deployment.stats.get("algorithm"),
            est_cost=deployment.stats.get("est_cost"),
        )
    hops = [sink] + list(deployment.stats.get("submit_chain") or [ctx.trace[0]["node"]])
    delay, relay_parent = 0.0, root
    for a, b in zip(hops[:-1], hops[1:]):
        if a != b:
            hop_delay = network.path_delay(a, b)
            delay += hop_delay
            sim.messages_delivered += 1
            if trace is not None:
                relay_parent = trace.record_hop(
                    "QuerySubmit", a, b, time=delay - hop_delay, parent=relay_parent,
                    link_cost=float(network.cost_matrix()[a, b]),
                    link_delay=hop_delay, relay=True,
                )
    first = sim._nodes[ctx.trace[0]["node"]]
    sim.active = relay_parent
    sim.schedule(delay, lambda: first.on_message(sink, Message("QuerySubmit", 0)))
    sim.active = None
    sim.run()
    if trace is not None and rates is not None:
        trace.record_flows(deployment, network.cost_matrix(), rates, parent=root)
    return DeploymentTimeline(
        query_name=ctx.name,
        submit_time=0.0,
        completed_time=ctx.finish_time,
        compute_seconds=sum(e["plans"] * seconds_per_plan for e in ctx.trace),
        messages=sim.messages_delivered,
        tasks=len(ctx.trace),
        operators_deployed=ctx.acks,
    )


#: The coordinator's next command once every ack of a kind arrived, and
#: the host each moved operator's command goes to.
_NEXT_PHASE = {"PauseAck": ("TransferCommand", "old_node"),
               "StateAck": ("ResumeCommand", "new_node")}


class _CutoverActor(_Actor):
    """Plays coordinator, old host and new host as the messages demand."""

    def begin(self) -> None:
        for move in self.ctx.moves:
            self.send_to(move.old_node, "PauseCommand", move)

    def phase_done(self, kind) -> bool:
        self.ctx.acks[kind] += 1
        return self.ctx.acks[kind] == len(self.ctx.moves)

    def on_message(self, src, message) -> None:
        ctx, kind, move = self.ctx, message.kind, message.about
        if kind == "PauseCommand":
            ack = lambda: self.send_to(ctx.coordinator, "PauseAck", move)  # noqa: E731
            self.sim.schedule(DRAIN_SECONDS, ack)
        elif kind == "TransferCommand":
            self.send_to(move.new_node, "StateChunk", move, move.state_bytes * SECONDS_PER_BYTE)
        elif kind == "StateChunk":
            self.send_to(ctx.coordinator, "StateAck", move)
        elif kind == "ResumeCommand":
            self.send_to(ctx.coordinator, "ResumeAck", move)
        elif self.phase_done(kind):
            ctx.done[kind] = self.sim.now
            if kind in _NEXT_PHASE:
                command, host = _NEXT_PHASE[kind]
                for each in ctx.moves:
                    self.send_to(getattr(each, host), command, each)


def simulate_cutover(network, diff, coordinator, start_time=0.0):
    """The event-driven replay of ``Migrator.simulate_cutover``."""
    if not diff.moved:
        return CutoverTimeline(diff.query, start_time, start_time)
    ctx = SimpleNamespace(moves=diff.moved, coordinator=coordinator, acks=Counter(), done={})
    sim = OracleSimulator(network)
    for node in network.nodes():
        sim.register(_CutoverActor(node, ctx))
    sim.now = start_time
    if sim.tracer is not None:
        sim.active = sim.tracer.new_trace(
            f"migrate:{diff.query}", node=coordinator,
            operators=len(diff.moved), state_bytes=diff.total_state_bytes,
        )
    sim.schedule(0.0, sim._nodes[coordinator].begin)
    sim.active = None
    sim.run()
    return CutoverTimeline(
        query_name=diff.query,
        started=start_time,
        completed=ctx.done["ResumeAck"],
        pause_done=ctx.done["PauseAck"],
        transfer_done=ctx.done["StateAck"],
        messages=sim.messages_delivered,
        bytes_moved=diff.total_state_bytes,
        operators_moved=len(diff.moved),
    )
