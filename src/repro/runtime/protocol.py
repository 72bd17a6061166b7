"""Deployment-protocol timing: how long does deploying a query take?

Reproduces what Figure 10 measures on Emulab.  Both hierarchical
algorithms leave a *task trace* in their deployment stats: one entry per
planning task with the coordinator node that ran it, the number of
plan/assignment combinations it examined, the task that spawned it, and
the physical nodes it instantiated operators on.  This module times
that trace as protocol traffic:

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

Every message is delivered once, one shortest-path delay after it is
sent (reliable links, no queueing), so the timeline is a critical path
computed directly; :mod:`repro.adaptive.migrate` times its cutover the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.graph import Network
from repro.obs.tracer import count, current_causal
from repro.query.deployment import Deployment

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


class _Event:
    """One moment of a protocol run: a delivery or the end of local work.

    ``key`` orders events the way a discrete-event queue processes them
    (by time, ties in scheduling order): ``(time, key of the event that
    scheduled it, its rank among that event's schedulings)``.  ``cause``
    is the causal parent of what is sent here: the hop delivered here
    (an index into :attr:`_Replay.hops`) or a span.
    """

    __slots__ = ("time", "key", "cause", "scheduled")

    def __init__(self, time: float, cause, by: "_Event | None" = None) -> None:
        self.time, self.cause, self.scheduled = time, cause, 0
        self.key = (time, (), 0)
        if by is not None:
            self.key, by.scheduled = (time, by.key, by.scheduled), by.scheduled + 1

    def later(self, seconds: float) -> "_Event":
        """The end of ``seconds`` of local work started here."""
        return _Event(self.time + seconds, self.cause, self)


class _Replay:
    """The messages of one protocol run.

    A message sent at ``t`` over a path of delay ``d`` (exactly 0.0 from
    a node to itself) arrives at ``(t + d) + extra``, ``extra`` being its
    transmission time.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.hops: list[tuple] = []

    def send(self, at: _Event, kind: str, src: int, dst: int, extra: float = 0.0) -> _Event:
        """Send a ``kind`` message at ``at``; returns its delivery."""
        delay = self.network.path_delay(src, dst) if src != dst else 0.0
        arrival = _Event((at.time + delay) + extra, len(self.hops), at)
        self.hops.append((arrival.key[1:], kind, src, dst, at.time, delay, arrival.time, at.cause))
        return arrival

    def record(self) -> None:
        """Record every message as a hop of the installed causal tracer,
        under its cause, in the order an event queue would send them."""
        tracer, costs = current_causal(), self.network.cost_matrix()
        spans = [None] * len(self.hops)
        for n in sorted(range(len(self.hops)), key=lambda n: self.hops[n][0]):
            _, kind, src, dst, sent, delay, arrived, cause = self.hops[n]
            spans[n] = tracer.record_hop(
                kind, src, dst, time=sent,
                parent=spans[cause] if isinstance(cause, int) else cause,
                link_cost=float(costs[src, dst]) if src != dst else 0.0,
                link_delay=delay,
            )
            spans[n].end = arrived


def simulate_deployment(
    network: Network,
    deployment: Deployment,
    seconds_per_plan: float = DEFAULT_SECONDS_PER_PLAN,
    rates=None,
) -> DeploymentTimeline:
    """Time a deployment's planning protocol, submitted at virtual time
    0; return its timeline.

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
    in one causal tree rooted at ``deploy:<query name>``.

    Raises:
        ValueError: If the deployment carries no task trace.
    """
    trace = deployment.stats.get("task_trace")
    if not trace:
        raise ValueError(
            "deployment has no task trace; only hierarchical optimizers "
            "(top-down / bottom-up) can be protocol-simulated"
        )
    sink = deployment.query.sink
    tracer = current_causal()
    root = None
    if tracer is not None:
        root = tracer.new_trace(
            f"deploy:{deployment.query.name}",
            node=sink,
            optimizer=deployment.stats.get("algorithm"),
            est_cost=deployment.stats.get("est_cost"),
        )
    # The submission is relayed hop by hop along the sink's coordinator
    # chain (Top-Down climbs to the root; Bottom-Up stops at its leaf
    # cluster's coordinator), ending at the first planning task's node.
    chain = [sink, *(deployment.stats.get("submit_chain") or [trace[0]["node"]])]
    delay, relays, relay_parent = 0.0, 0, root
    for a, b in zip(chain[:-1], chain[1:]):
        if a != b:
            hop_delay = network.path_delay(a, b)
            delay += hop_delay
            relays += 1
            if tracer is not None:
                relay_parent = tracer.record_hop(
                    "QuerySubmit", a, b, time=delay - hop_delay,
                    parent=relay_parent,
                    link_cost=float(network.cost_matrix()[a, b]),
                    link_delay=hop_delay, relay=True,
                )
    # One pass over the trace: a task's parent precedes it.
    children: list[list[int]] = [[] for _ in trace]
    for i, entry in enumerate(trace):
        if entry["parent"] >= 0:
            children[entry["parent"]].append(i)
    replay = _Replay(network)
    received = {0: _Event(delay, relay_parent)}
    at_sink: list[float] = []
    for i, entry in enumerate(trace):
        node = entry["node"]
        planned = received.pop(i).later(entry["plans"] * seconds_per_plan)
        for child in children[i]:
            received[child] = replay.send(planned, "PlanRequest", node, trace[child]["node"])
        for op_node in entry.get("deploy_nodes", ()):
            placed = replay.send(planned, "DeployCommand", node, op_node)
            at_sink.append(replay.send(placed, "DeployAck", op_node, sink).time)
        at_sink.append(replay.send(planned, "_TaskDone", node, sink).time)
    count("messages", len(replay.hops))
    if tracer is not None:
        replay.record()
        if rates is not None:
            tracer.record_flows(deployment, network.cost_matrix(), rates, parent=root)
    return DeploymentTimeline(
        query_name=deployment.query.name,
        submit_time=0.0,
        completed_time=max(at_sink),
        compute_seconds=sum(e["plans"] * seconds_per_plan for e in trace),
        messages=relays + len(replay.hops),
        tasks=len(trace),
        operators_deployed=sum(len(e.get("deploy_nodes", ())) for e in trace),
    )
