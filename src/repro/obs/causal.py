"""Distributed causal tracing for the message-passing runtime.

The span tracer (:mod:`repro.obs.tracer`) covers *in-process* work --
one optimizer call, one service tick.  This module covers the part the
paper's deployment-time claims actually hinge on: the
coordinator-to-coordinator *message hops* the hierarchy produces.  A
W3C-trace-context-style :class:`TraceContext` (trace id, span id, parent
span id, hop count) rides on every :mod:`repro.runtime.messages`
message; the :class:`~repro.runtime.simulator.Simulator` propagates it
through ``send`` and through scheduled continuations, so planning,
deployment, migration and fault-retransmission activity forms one
causal span tree per query across coordinators.

Every hop carries per-link accounting tags:

* ``link_cost`` -- the traversal cost ``c(src, dst)`` of the shortest
  path the message took (the paper's per-unit-rate communication cost);
  data-flow hops recorded by :meth:`CausalTracer.record_flows` carry
  ``rate x cost`` instead, so a query's flow hops sum exactly to its
  deployment's communication cost per unit time;
* ``link_delay`` / ``queue_delay`` -- the network propagation delay and
  any extra transmission/queueing delay the sender (or a fault
  middleware) added;
* ``retransmit`` -- set on re-sends of an already-sent message by the
  reliable-delivery layer; a retransmitted hop reuses the original
  message's trace id and parents under the original hop, never starting
  a fresh root.

The tracer is opt-in: it is a channel of the one instrumentation
context (:func:`~repro.obs.tracer.causal_tracing`), and a simulator
built with none installed takes the exact pre-tracing fast path, with
messages carrying ``trace=None`` (excluded from equality and repr), so
untraced behavior is byte-identical.

Trees export three ways: :meth:`CausalTracer.span_tree` (data-only
:class:`~repro.obs.tracer.Span` trees for rendering / the tagged-JSON
envelope), :meth:`CausalTracer.to_dict`, and
:meth:`CausalTracer.chrome_trace` (Chrome ``chrome://tracing`` /
Perfetto trace-event format).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.tracer import Span


@dataclass(frozen=True)
class TraceContext:
    """W3C-style trace context carried on runtime messages.

    Attributes:
        trace_id: Identity of the whole causal tree (one per query
            deployment / migration / drill).
        span_id: Identity of this hop.
        parent_id: Span id of the hop (or root) that caused this one;
            ``None`` only on trace roots.
        hop: Distance from the root in message hops.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None
    hop: int = 0

    def child(self, span_id: str) -> "TraceContext":
        """Context for a hop caused by this one."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=span_id,
            parent_id=self.span_id,
            hop=self.hop + 1,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "hop": self.hop,
        }


@dataclass
class Hop:
    """One recorded message hop (or synthetic root / data-flow edge).

    Attributes:
        context: The hop's trace context.
        kind: Message class name (``PlanRequest``, ``DeployCommand``,
            ...), a synthetic root name (``deploy:q3``), or a data-flow
            label (``flow:A*B``).
        src: Sending node.
        dst: Receiving node.
        send_time: Virtual time the message entered the network.
        deliver_time: Virtual time of the first delivery (``None`` if
            dropped or still in flight).
        link_cost: Traversal cost of the hop (``c(src, dst)``; for flow
            hops ``rate x c(src, dst)`` -- cost per unit time).
        link_delay: Shortest-path propagation delay.
        queue_delay: Extra transmission/queueing delay beyond the path
            delay (sender-specified plus middleware-injected).
        retransmit: Whether this hop is a re-send of an earlier message.
        retransmit_count: On the *original* hop: times it was re-sent.
        deliveries: Delivery count (> 1 when a fault duplicated it).
        dropped: Whether a middleware dropped the (last send of the)
            message.
        drop_reason: Middleware-supplied reason (``storm``,
            ``partition``, ``outage``) when known.
        tags: Free-form extra annotations.
    """

    context: TraceContext
    kind: str
    src: int
    dst: int
    send_time: float
    deliver_time: float | None = None
    link_cost: float = 0.0
    link_delay: float = 0.0
    queue_delay: float = 0.0
    retransmit: bool = False
    retransmit_count: int = 0
    deliveries: int = 0
    dropped: bool = False
    drop_reason: str | None = None
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Send-to-delivery virtual seconds (0.0 while undelivered)."""
        if self.deliver_time is None:
            return 0.0
        return self.deliver_time - self.send_time

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form."""
        return {
            **self.context.to_dict(),
            "kind": self.kind,
            "src": self.src,
            "dst": self.dst,
            "send_time": self.send_time,
            "deliver_time": self.deliver_time,
            "link_cost": self.link_cost,
            "link_delay": self.link_delay,
            "queue_delay": self.queue_delay,
            "retransmit": self.retransmit,
            "retransmit_count": self.retransmit_count,
            "deliveries": self.deliveries,
            "dropped": self.dropped,
            "drop_reason": self.drop_reason,
            "tags": dict(self.tags),
        }


def _message_key(src: int, dst: int, message: Any) -> tuple:
    """Identity of a message independent of its trace stamp.

    Two sends with the same key are the same protocol message -- the
    second (and later) ones are retransmissions.
    """
    if dataclasses.is_dataclass(message) and not isinstance(message, type):
        payload = tuple(
            (f.name, getattr(message, f.name))
            for f in dataclasses.fields(message)
            if f.name != "trace"
        )
    else:  # pragma: no cover - non-dataclass messages (dataplane envelopes)
        payload = (id(message),)
    return (src, dst, type(message).__name__, payload)


class CausalTracer:
    """Collects causal message-hop trees across a simulation.

    Install it around the run with ``with causal_tracing(tracer):``;
    every :class:`~repro.runtime.simulator.Simulator` built inside
    records into it.  Open a root with :meth:`new_trace` before kicking
    off the protocol so every hop lands in one tree
    (:func:`~repro.runtime.protocol.simulate_deployment` and
    :meth:`~repro.adaptive.migrate.Migrator.simulate_cutover` do).  All
    ids are drawn from deterministic counters -- two identical runs
    produce identical traces.
    """

    def __init__(self) -> None:
        self.hops: list[Hop] = []
        self._by_span: dict[str, Hop] = {}
        self._roots: list[Hop] = []
        self._seen: dict[tuple, Hop] = {}
        self._active: TraceContext | None = None
        self._next_trace = 0
        self._next_span = 0

    # ------------------------------------------------------------------
    # Id generation (deterministic)
    # ------------------------------------------------------------------
    def _trace_id(self) -> str:
        self._next_trace += 1
        return f"trace-{self._next_trace:04d}"

    def _span_id(self) -> str:
        self._next_span += 1
        return f"s{self._next_span:06d}"

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    def activate(self, ctx: TraceContext | None) -> TraceContext | None:
        """Make ``ctx`` the active cause; returns the previous one."""
        prev = self._active
        self._active = ctx
        return prev

    def deactivate(self, prev: TraceContext | None) -> None:
        """Restore a previously active context."""
        self._active = prev

    def bind(self, action: Callable[[], Any]) -> Callable[[], Any]:
        """Close ``action`` over the current context.

        The simulator wraps every scheduled callback with this, so
        local work (planning compute, drain timers, retransmission
        timers) keeps its causal parent across virtual time.
        """
        ctx = self._active

        def bound() -> Any:
            prev = self.activate(ctx)
            try:
                return action()
            finally:
                self.deactivate(prev)

        return bound

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def new_trace(self, name: str, node: int = -1, **tags: Any) -> TraceContext:
        """Open a new causal tree; returns (and activates) its root.

        Args:
            name: Root label (``deploy:q3``, ``migrate:q7``).
            node: Node the root activity happens on (the sink, usually).
            **tags: Extra annotations stored on the root hop.
        """
        ctx = TraceContext(trace_id=self._trace_id(), span_id=self._span_id())
        root = Hop(
            context=ctx, kind=name, src=node, dst=node,
            send_time=0.0, deliver_time=0.0, tags=dict(tags),
        )
        self._register(root)
        self._roots.append(root)
        self._active = ctx
        return ctx

    def _register(self, hop: Hop) -> None:
        self.hops.append(hop)
        self._by_span[hop.context.span_id] = hop

    def record_hop(
        self,
        kind: str,
        src: int,
        dst: int,
        time: float,
        parent: TraceContext | None = None,
        link_cost: float = 0.0,
        link_delay: float = 0.0,
        delivered: bool = True,
        **tags: Any,
    ) -> Hop:
        """Record a synthetic hop (submission-chain relays, flow edges).

        The hop parents under ``parent`` (default: the active context;
        a fresh root when neither exists).
        """
        cause = parent if parent is not None else self._active
        if cause is None:
            ctx = TraceContext(trace_id=self._trace_id(), span_id=self._span_id())
        else:
            ctx = cause.child(self._span_id())
        hop = Hop(
            context=ctx, kind=kind, src=src, dst=dst,
            send_time=time,
            deliver_time=(time + link_delay) if delivered else None,
            link_cost=link_cost, link_delay=link_delay,
            deliveries=1 if delivered else 0,
            tags=dict(tags),
        )
        self._register(hop)
        if cause is None:
            self._roots.append(hop)
        return hop

    # -- simulator hook points -----------------------------------------
    def on_send(
        self, sim, src: int, dst: int, message: Any, link_delay: float,
    ) -> tuple[Any, Hop]:
        """Record one :meth:`Simulator.send`; returns the stamped message.

        Re-sends of an already-seen message (same payload, endpoints)
        are tagged ``retransmit=True``, reuse the original trace id and
        parent under the original hop -- never a fresh root.
        """
        key = _message_key(src, dst, message)
        original = self._seen.get(key)
        kind = type(message).__name__
        link_cost = self._link_cost(sim, src, dst)
        if original is not None:
            ctx = original.context.child(self._span_id())
            hop = Hop(
                context=ctx, kind=kind, src=src, dst=dst,
                send_time=sim.now, link_cost=link_cost,
                link_delay=link_delay, retransmit=True,
            )
            original.retransmit_count += 1
        else:
            cause = self._active
            if cause is None:
                ctx = TraceContext(
                    trace_id=self._trace_id(), span_id=self._span_id()
                )
            else:
                ctx = cause.child(self._span_id())
            hop = Hop(
                context=ctx, kind=kind, src=src, dst=dst,
                send_time=sim.now, link_cost=link_cost,
                link_delay=link_delay,
            )
            self._seen[key] = hop
            if cause is None:
                self._roots.append(hop)
        self._register(hop)
        if dataclasses.is_dataclass(message) and hasattr(message, "trace"):
            message = dataclasses.replace(message, trace=hop.context)
        return message, hop

    @staticmethod
    def _link_cost(sim, src: int, dst: int) -> float:
        if src == dst or src < 0 or dst < 0:
            return 0.0
        return float(sim.network.cost_matrix()[src, dst])

    def on_deliver(self, hop: Hop, now: float) -> None:
        """Record a delivery of a sent hop (first delivery sets timing)."""
        hop.deliveries += 1
        if hop.deliver_time is None:
            hop.deliver_time = now

    def on_drop(self, hop: Hop, reason: str | None = None) -> None:
        """Record a middleware drop of a sent hop."""
        hop.dropped = True
        if reason is not None:
            hop.drop_reason = reason

    def on_extra_delay(self, hop: Hop, extra: float) -> None:
        """Account middleware-injected delay on the hop."""
        hop.queue_delay += extra

    # -- data-flow accounting ------------------------------------------
    def record_flows(
        self,
        deployment,
        costs,
        rates,
        parent: TraceContext | None = None,
    ) -> list[Hop]:
        """Record the deployment's data-flow edges as costed hops.

        One hop per plan edge (child operator -> parent join, plus the
        root -> sink delivery), tagged ``link_cost = rate x c(src, dst)``
        -- per-unit-time shipping cost.  Their ``link_cost`` tags sum
        exactly to the deployment's communication cost
        (:func:`repro.core.cost.deployment_cost`).
        """
        from repro.query.plan import Leaf

        query = deployment.query

        def flow_rate(sub) -> float:
            rate = rates.rate_for(query, sub.sources)
            if isinstance(sub, Leaf) and not sub.is_base_stream:
                rate *= rates.reuse_rate_inflation
            return rate

        def label(sub) -> str:
            return "*".join(sorted(sub.sources))

        recorded: list[Hop] = []
        for join in deployment.plan.joins():
            node = deployment.placement[join]
            for child in (join.left, join.right):
                src = deployment.placement[child]
                rate = flow_rate(child)
                recorded.append(self.record_hop(
                    f"flow:{label(child)}", src, node, time=0.0, parent=parent,
                    link_cost=rate * float(costs[src, node]),
                    rate=rate, flow=True,
                ))
        root = deployment.plan
        rate = flow_rate(root)
        src = deployment.placement[root]
        recorded.append(self.record_hop(
            f"flow:{label(root)}", src, query.sink, time=0.0, parent=parent,
            link_cost=rate * float(costs[src, query.sink]),
            rate=rate, flow=True,
        ))
        return recorded

    # ------------------------------------------------------------------
    # Inspection and export
    # ------------------------------------------------------------------
    def trace_ids(self) -> list[str]:
        """Ids of every collected tree, in creation order."""
        out: list[str] = []
        for root in self._roots:
            if root.context.trace_id not in out:
                out.append(root.context.trace_id)
        return out

    def hops_of(self, trace_id: str) -> list[Hop]:
        """All hops of one tree, in record order."""
        return [h for h in self.hops if h.context.trace_id == trace_id]

    def flow_cost(self, trace_id: str) -> float:
        """Sum of the tree's data-flow ``link_cost`` tags."""
        return sum(
            h.link_cost for h in self.hops_of(trace_id)
            if h.tags.get("flow")
        )

    def retransmissions(self, trace_id: str | None = None) -> int:
        """Retransmitted hops recorded (optionally in one tree)."""
        hops = self.hops if trace_id is None else self.hops_of(trace_id)
        return sum(1 for h in hops if h.retransmit)

    def span_tree(self, trace_id: str) -> Span:
        """One tree as a data-only :class:`~repro.obs.tracer.Span` tree.

        Spans carry the hop tags (``src``, ``dst``, ``link_cost``,
        ``queue_delay``, ``retransmit``, ...) and time from send to
        delivery, so the usual rendering and JSON envelope apply.
        """
        hops = self.hops_of(trace_id)
        if not hops:
            raise KeyError(f"unknown trace {trace_id!r}")
        spans: dict[str, Span] = {}
        for hop in hops:
            span = Span(hop.kind, self._span_tags(hop))
            span.start = hop.send_time
            span.end = hop.deliver_time if hop.deliver_time is not None else hop.send_time
            spans[hop.context.span_id] = span
        root: Span | None = None
        for hop in hops:
            span = spans[hop.context.span_id]
            parent = (
                spans.get(hop.context.parent_id)
                if hop.context.parent_id is not None
                else None
            )
            if parent is not None:
                parent.children.append(span)
            elif root is None:
                root = span
            else:  # pragma: no cover - multiple roots in one trace id
                root.children.append(span)
        assert root is not None
        return root

    @staticmethod
    def _span_tags(hop: Hop) -> dict[str, Any]:
        tags: dict[str, Any] = {
            "src": hop.src, "dst": hop.dst, "hop": hop.context.hop,
        }
        if hop.link_cost:
            tags["link_cost"] = hop.link_cost
        if hop.queue_delay:
            tags["queue_delay"] = hop.queue_delay
        if hop.retransmit:
            tags["retransmit"] = True
        if hop.retransmit_count:
            tags["retransmissions"] = hop.retransmit_count
        if hop.dropped:
            tags["dropped"] = True
            if hop.drop_reason:
                tags["drop_reason"] = hop.drop_reason
        if hop.deliveries > 1:
            tags["deliveries"] = hop.deliveries
        tags.update(hop.tags)
        return tags

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form: every hop, grouped by trace."""
        return {
            "traces": [
                {
                    "trace_id": trace_id,
                    "hops": [h.to_dict() for h in self.hops_of(trace_id)],
                    "flow_cost": self.flow_cost(trace_id),
                    "retransmissions": self.retransmissions(trace_id),
                }
                for trace_id in self.trace_ids()
            ]
        }

    def chrome_trace(self) -> list[dict[str, Any]]:
        """The collected hops in Chrome trace-event format.

        Load the JSON list into ``chrome://tracing`` or Perfetto: each
        trace is a process, each receiving node a thread, each hop a
        complete ("X") event spanning send to delivery; timestamps are
        virtual microseconds.
        """
        pids = {tid: i + 1 for i, tid in enumerate(self.trace_ids())}
        events: list[dict[str, Any]] = []
        for trace_id, pid in pids.items():
            events.append({
                "ph": "M", "pid": pid, "name": "process_name",
                "args": {"name": trace_id},
            })
        for hop in self.hops:
            pid = pids[hop.context.trace_id]
            end = hop.deliver_time if hop.deliver_time is not None else hop.send_time
            events.append({
                "name": hop.kind,
                "cat": "causal" if not hop.tags.get("flow") else "flow",
                "ph": "X",
                "pid": pid,
                "tid": max(hop.dst, 0),
                "ts": hop.send_time * 1e6,
                "dur": max((end - hop.send_time) * 1e6, 0.0),
                "args": {
                    "span_id": hop.context.span_id,
                    "parent_id": hop.context.parent_id,
                    **self._span_tags(hop),
                },
            })
        return events

    def summary(self) -> dict[str, Any]:
        """Counters for reports."""
        return {
            "traces": len(self.trace_ids()),
            "hops": len(self.hops),
            "retransmissions": self.retransmissions(),
            "dropped": sum(1 for h in self.hops if h.dropped),
            "duplicated_deliveries": sum(
                max(0, h.deliveries - 1) for h in self.hops
            ),
        }

