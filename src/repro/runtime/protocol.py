"""Deployment-protocol simulation: how long does deploying a query take?

Reproduces what Figure 10 measures on Emulab.  Both hierarchical
algorithms leave a *task trace* in their deployment stats: one entry per
planning task with the coordinator node that ran it, the number of
plan/assignment combinations it examined, the task that spawned it, and
the physical nodes it instantiated operators on.  This module replays
that trace as protocol traffic on the discrete-event simulator:

1. the sink sends the query to the trace's first coordinator;
2. each coordinator "computes" for ``plans x seconds_per_plan``
   (modeling the exhaustive per-cluster search), then simultaneously
   forwards sub-tasks to child coordinators and deploy commands to
   operator hosts;
3. operator hosts acknowledge to the sink; planning tasks report
   completion to the sink;
4. the *deployment time* is when the sink has seen every ack and every
   task completion.

Top-Down therefore pays one coordinator round per hierarchy level on
every query, while Bottom-Up's trace stops climbing as soon as all
sources are local -- the mechanism behind the paper's ~70% deployment
time advantage for Bottom-Up.

Under fault injection (pass a :class:`~repro.resilience.faults.FaultInjector`)
the protocol becomes *reliable*: delivery is tracked per message
identity, receivers deduplicate and re-acknowledge duplicates, and
senders retransmit at the retry policy's backoff intervals until the
protocol goal registers -- so a deployment completes (later) through a
message storm instead of hanging.  With the default
:data:`~repro.resilience.faults.NULL_FAULTS`, no retransmission
machinery is scheduled and the timeline is identical to the pre-fault
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.network.graph import Network
from repro.query.deployment import Deployment
from repro.resilience.faults import NULL_FAULTS
from repro.resilience.policy import RetryPolicy
from repro.runtime.messages import DeployAck, DeployCommand, PlanRequest, QuerySubmit
from repro.runtime.simulator import ReliableNode, ReliableRun, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.causal import CausalTracer

DEFAULT_SECONDS_PER_PLAN = 2e-5
"""Calibrated coordinator search speed: seconds per (tree, assignment)
combination examined.  2007-era hardware enumerating small in-memory
cost evaluations; the absolute value shifts Figure 10's y-axis but not
its shape."""


@dataclass
class DeploymentTimeline:
    """Timing of one simulated query deployment.

    Attributes:
        query_name: The deployed query.
        submit_time: When the sink submitted the query.
        completed_time: When the sink had every ack and task completion.
        compute_seconds: Total coordinator computation (sum over tasks).
        messages: Protocol messages delivered.
        tasks: Number of planning tasks replayed.
        operators_deployed: Deploy commands issued.
        retransmissions: Messages re-sent by the reliable-delivery layer
            (0 without fault injection).
    """

    query_name: str
    submit_time: float
    completed_time: float
    compute_seconds: float
    messages: int
    tasks: int
    operators_deployed: int
    retransmissions: int = 0

    @property
    def duration(self) -> float:
        """Wall-clock (virtual) deployment time in seconds."""
        return self.completed_time - self.submit_time


@dataclass
class _TaskDone:
    query_name: str
    task_index: int
    trace: object | None = field(default=None, compare=False, repr=False)


class _Context(ReliableRun):
    def __init__(
        self,
        deployment: Deployment,
        seconds_per_plan: float,
        faults=NULL_FAULTS,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(faults, retry)
        trace = deployment.stats.get("task_trace")
        if not trace:
            raise ValueError(
                "deployment has no task trace; only hierarchical optimizers "
                "(top-down / bottom-up) can be protocol-simulated"
            )
        self.query = deployment.query
        self.trace = trace
        self.seconds_per_plan = seconds_per_plan
        self.children: dict[int, list[int]] = {i: [] for i in range(len(trace))}
        for idx, entry in enumerate(trace):
            parent = entry["parent"]
            if parent >= 0:
                self.children[parent].append(idx)
        self.expected_acks = sum(len(e.get("deploy_nodes", ())) for e in trace)
        self.expected_tasks = len(trace)
        # Delivery is tracked by message identity (sets), so injected
        # duplicates cannot double-count toward completion.
        self.acked: set[tuple[str, int]] = set()
        self.tasks_done: set[int] = set()
        self.started: set[int] = set()
        self.finish_time: float | None = None
        self.compute_seconds = sum(
            e["plans"] * seconds_per_plan for e in trace
        )

    @property
    def complete(self) -> bool:
        return (
            len(self.acked) >= self.expected_acks
            and len(self.tasks_done) >= self.expected_tasks
        )


class _ProtocolActor(ReliableNode):
    """One actor per physical node; coordinators and operator hosts alike."""

    ctx: _Context

    def on_message(self, src: int, message) -> None:
        assert self.sim is not None
        ctx = self.ctx
        if isinstance(message, (QuerySubmit, PlanRequest)):
            task_index = 0 if isinstance(message, QuerySubmit) else message.task_index
            if task_index in ctx.started:
                return  # duplicate request; the task is already running
            ctx.started.add(task_index)
            entry = ctx.trace[task_index]
            compute = (
                entry["plans"]
                * ctx.seconds_per_plan
                * ctx.faults.slowdown(self.node_id, self.sim.now)
            )

            def finish_planning() -> None:
                for child in ctx.children[task_index]:
                    self.reliable_send(
                        ctx.trace[child]["node"],
                        PlanRequest(ctx.query.name, child),
                        delivered=lambda c=child: c in ctx.started,
                    )
                for j, op_node in enumerate(entry.get("deploy_nodes", ())):
                    label = f"task{task_index}.{j}"
                    self.reliable_send(
                        op_node,
                        DeployCommand(ctx.query.name, label),
                        delivered=lambda key=(label, op_node): key in ctx.acked,
                    )
                self.reliable_send(
                    ctx.query.sink,
                    _TaskDone(ctx.query.name, task_index),
                    delivered=lambda t=task_index: t in ctx.tasks_done,
                )

            self.sim.schedule(compute, finish_planning)
        elif isinstance(message, DeployCommand):
            # Operator instantiation is local and fast; ack to the sink.
            # Duplicated commands re-ack -- the earlier ack may have been
            # lost, and acks are identity-deduplicated at the sink.
            self.send(
                ctx.query.sink, DeployAck(message.query_name, message.operator_label)
            )
        elif isinstance(message, (DeployAck, _TaskDone)):
            if isinstance(message, DeployAck):
                ctx.acked.add((message.operator_label, src))
            else:
                ctx.tasks_done.add(message.task_index)
            if ctx.complete and ctx.finish_time is None:
                ctx.finish_time = self.sim.now
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message {message!r}")


#: Default retransmission policy for fault-injected protocol runs:
#: deterministic (no jitter), enough attempts to ride out a storm.
PROTOCOL_RETRY = RetryPolicy(
    max_attempts=5, base_delay=0.05, multiplier=2.0, max_delay=1.0,
    jitter=0.0, attempt_timeout=None,
)


def simulate_deployment(
    network: Network,
    deployment: Deployment,
    seconds_per_plan: float = DEFAULT_SECONDS_PER_PLAN,
    start_time: float = 0.0,
    faults=NULL_FAULTS,
    retry: RetryPolicy | None = None,
    trace: "CausalTracer | None" = None,
    rates=None,
) -> DeploymentTimeline:
    """Replay a deployment's planning protocol; return its timeline.

    Args:
        network: The physical network (provides message delays).
        deployment: A deployment produced by a hierarchical optimizer
            (its stats must carry a ``task_trace``).
        seconds_per_plan: Coordinator search speed.
        start_time: Virtual submission time.
        faults: Fault injector; its message middleware is installed on
            the simulator and coordinator slow-downs stretch compute
            time.  :data:`NULL_FAULTS` (the default) leaves the
            simulation byte-identical to a fault-free build.
        retry: Retransmission policy under faults
            (:data:`PROTOCOL_RETRY` when omitted).  Ignored without
            fault injection.
        trace: Causal tracer; when given, the whole deployment -- the
            submission relay, every protocol message, retransmissions
            -- lands in one causal tree rooted at
            ``deploy:<query name>``.  ``None`` (the default) keeps the
            simulation byte-identical to an untraced build.
        rates: Optional :class:`~repro.core.cost.RateModel`; with
            ``trace``, the plan's data-flow edges are recorded as
            costed hops under the same root, so the tree's flow
            ``link_cost`` tags sum to the deployment's communication
            cost.

    Raises:
        ValueError: If the deployment carries no task trace.
    """
    if faults.enabled and retry is None:
        retry = PROTOCOL_RETRY
    ctx = _Context(deployment, seconds_per_plan, faults=faults, retry=retry)
    sim = Simulator(network)
    faults.install(sim)
    for node in network.nodes():
        sim.register(_ProtocolActor(node, ctx))
    sim.now = start_time

    sink = deployment.query.sink
    root_ctx = None
    if trace is not None:
        sim.attach_trace(trace)
        root_ctx = trace.new_trace(
            f"deploy:{deployment.query.name}",
            node=sink,
            optimizer=deployment.stats.get("algorithm"),
            est_cost=deployment.stats.get("est_cost"),
        )
    # The submission is relayed hop by hop along the sink's coordinator
    # chain (Top-Down climbs to the root; Bottom-Up stops at its leaf
    # cluster's coordinator), ending at the first planning task's node.
    chain = list(deployment.stats.get("submit_chain") or [ctx.trace[0]["node"]])
    if chain[-1] != ctx.trace[0]["node"]:  # pragma: no cover - defensive
        chain.append(ctx.trace[0]["node"])
    hops = [sink] + chain
    delay = 0.0
    relay_parent = root_ctx
    for a, b in zip(hops[:-1], hops[1:]):
        if a != b:
            hop_delay = network.path_delay(a, b)
            delay += hop_delay
            sim.messages_delivered += 1
            if trace is not None:
                relay = trace.record_hop(
                    "QuerySubmit", a, b, time=start_time + delay - hop_delay,
                    parent=relay_parent,
                    link_cost=float(network.cost_matrix()[a, b]),
                    link_delay=hop_delay, relay=True,
                )
                relay_parent = relay.context
    if trace is not None:
        # The first planning task is caused by the last relay hop.
        trace.activate(relay_parent)
    sim.schedule(
        delay,
        lambda: sim.node(ctx.trace[0]["node"]).on_message(
            sink, QuerySubmit(deployment.query.name, sink)
        ),
    )
    if trace is not None:
        trace.activate(None)
    sim.run()
    if trace is not None and rates is not None:
        trace.record_flows(
            deployment, network.cost_matrix(), rates, parent=root_ctx
        )
    if ctx.finish_time is None:
        raise RuntimeError(
            "protocol simulation never completed"
            + (
                " (fault injection exhausted the retransmission budget)"
                if faults.enabled
                else ""
            )
        )
    return DeploymentTimeline(
        query_name=deployment.query.name,
        submit_time=start_time,
        completed_time=ctx.finish_time,
        compute_seconds=ctx.compute_seconds,
        messages=sim.messages_delivered,
        tasks=ctx.expected_tasks,
        operators_deployed=ctx.expected_acks,
        retransmissions=ctx.retransmissions,
    )
