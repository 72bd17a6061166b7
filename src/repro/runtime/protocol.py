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

Every protocol message is delivered exactly once (the paper's protocol
runs over reliable links): the simulation times a deployment, it does
not model message loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.graph import Network
from repro.obs.tracer import current_causal
from repro.query.deployment import Deployment
from repro.runtime.messages import DeployAck, DeployCommand, PlanRequest, QuerySubmit
from repro.runtime.simulator import SimNode, Simulator

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
    """

    query_name: str
    submit_time: float
    completed_time: float
    compute_seconds: float
    messages: int
    tasks: int
    operators_deployed: int

    @property
    def duration(self) -> float:
        """Wall-clock (virtual) deployment time in seconds."""
        return self.completed_time - self.submit_time


@dataclass
class _TaskDone:
    query_name: str
    task_index: int
    trace: object | None = field(default=None, compare=False, repr=False)


class _Context:
    def __init__(self, deployment: Deployment, seconds_per_plan: float) -> None:
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
        self.acked = 0
        self.tasks_done = 0
        self.finish_time: float | None = None
        self.compute_seconds = sum(
            e["plans"] * seconds_per_plan for e in trace
        )

    @property
    def complete(self) -> bool:
        return (
            self.acked >= self.expected_acks
            and self.tasks_done >= self.expected_tasks
        )


class _ProtocolActor(SimNode):
    """One actor per physical node; coordinators and operator hosts alike."""

    def __init__(self, node_id: int, ctx: _Context) -> None:
        super().__init__(node_id)
        self.ctx = ctx

    def on_message(self, src: int, message) -> None:
        assert self.sim is not None
        ctx = self.ctx
        if isinstance(message, (QuerySubmit, PlanRequest)):
            task_index = 0 if isinstance(message, QuerySubmit) else message.task_index
            entry = ctx.trace[task_index]

            def finish_planning() -> None:
                for child in ctx.children[task_index]:
                    self.send(ctx.trace[child]["node"], PlanRequest(ctx.query.name, child))
                for j, op_node in enumerate(entry.get("deploy_nodes", ())):
                    self.send(op_node, DeployCommand(ctx.query.name, f"task{task_index}.{j}"))
                self.send(ctx.query.sink, _TaskDone(ctx.query.name, task_index))

            self.sim.schedule(entry["plans"] * ctx.seconds_per_plan, finish_planning)
        elif isinstance(message, DeployCommand):
            # Operator instantiation is local and fast; ack to the sink.
            self.send(
                ctx.query.sink, DeployAck(message.query_name, message.operator_label)
            )
        elif isinstance(message, (DeployAck, _TaskDone)):
            if isinstance(message, DeployAck):
                ctx.acked += 1
            else:
                ctx.tasks_done += 1
            if ctx.complete and ctx.finish_time is None:
                ctx.finish_time = self.sim.now
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected message {message!r}")


def simulate_deployment(
    network: Network,
    deployment: Deployment,
    seconds_per_plan: float = DEFAULT_SECONDS_PER_PLAN,
    rates=None,
) -> DeploymentTimeline:
    """Replay a deployment's planning protocol, submitted at virtual
    time 0; return its timeline.

    Args:
        network: The physical network (provides message delays).
        deployment: A deployment produced by a hierarchical optimizer
            (its stats must carry a ``task_trace``).
        seconds_per_plan: Coordinator search speed.
        rates: Optional :class:`~repro.core.cost.RateModel`; under a
            causal tracer, the plan's data-flow edges are recorded as
            costed hops under the deployment's root, so the tree's
            flow ``link_cost`` tags sum to its communication cost.

    Under ``with causal_tracing(tracer):`` the whole deployment -- the
    submission relay and every protocol message -- lands
    in one causal tree rooted at ``deploy:<query name>``.  With none
    installed the simulation is byte-identical to an untraced build.

    Raises:
        ValueError: If the deployment carries no task trace.
    """
    ctx = _Context(deployment, seconds_per_plan)
    sim = Simulator(network)
    for node in network.nodes():
        sim.register(_ProtocolActor(node, ctx))

    sink = deployment.query.sink
    trace = current_causal()
    root = None
    if trace is not None:
        root = trace.new_trace(
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
    relay_parent = root
    for a, b in zip(hops[:-1], hops[1:]):
        if a != b:
            hop_delay = network.path_delay(a, b)
            delay += hop_delay
            sim.messages_delivered += 1
            if trace is not None:
                relay_parent = trace.record_hop(
                    "QuerySubmit", a, b, time=delay - hop_delay,
                    parent=relay_parent,
                    link_cost=float(network.cost_matrix()[a, b]),
                    link_delay=hop_delay, relay=True,
                )
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
        trace.record_flows(deployment, network.cost_matrix(), rates, parent=root)
    if ctx.finish_time is None:  # pragma: no cover - defensive
        raise RuntimeError("protocol simulation never completed")
    return DeploymentTimeline(
        query_name=deployment.query.name,
        submit_time=0.0,
        completed_time=ctx.finish_time,
        compute_seconds=ctx.compute_seconds,
        messages=sim.messages_delivered,
        tasks=ctx.expected_tasks,
        operators_deployed=ctx.expected_acks,
    )
