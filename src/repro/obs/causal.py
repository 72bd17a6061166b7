"""Distributed causal tracing for the message-passing runtime.

The span tracer (:mod:`repro.obs.tracer`) covers *in-process* work --
one optimizer call, one service tick.  This module covers the part the
paper's deployment-time claims actually hinge on: the
coordinator-to-coordinator *message hops* the hierarchy produces.  A
hop is a :class:`~repro.obs.tracer.Span` that also carries W3C-style
ids (``trace_id``, ``span_id``, ``parent_id``) and rides on its
:mod:`repro.runtime.messages` message; the
:class:`~repro.runtime.simulator.Simulator` propagates it through
``send`` and through scheduled continuations, and each hop is linked
under its cause as it is recorded, so planning, deployment and
migration activity forms one span tree per query across coordinators
(:attr:`CausalTracer.roots`).

A hop span is named after the message kind and runs from the virtual
send to the delivery.  Its tags:

* ``src``, ``dst`` and ``hop`` (depth below the root);
* ``link_cost`` -- the traversal cost ``c(src, dst)`` of the shortest
  path taken; data-flow hops recorded by :meth:`CausalTracer.record_flows`
  carry ``rate x cost`` instead, so a query's flow hops sum exactly to
  its deployment's communication cost per unit time;
* free annotations.

Its counters are ``link_delay`` and ``deliveries``.

The tracer is opt-in: it is a channel of the one instrumentation
context (:func:`~repro.obs.tracer.causal_tracing`), and a simulator
built with none installed takes the exact pre-tracing fast path, with
messages carrying ``trace=None`` (excluded from equality and repr), so
untraced behavior is byte-identical.  Trees render and serialize like
any span tree; :meth:`CausalTracer.to_dict` (flat hop records per
trace) and :meth:`CausalTracer.chrome_trace` (Chrome
``chrome://tracing`` / Perfetto trace-event format) export them all.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable

from repro.obs.tracer import Span

#: Hop tags with a fixed slot in the JSON hop record; every other tag
#: is a free annotation.
_HOP_TAGS = ("src", "dst", "hop", "link_cost")


def _hop_dict(span: Span) -> dict[str, Any]:
    """The JSON hop record of one hop span."""
    tags, counters = span.tags, span.counters
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "hop": tags["hop"],
        "kind": span.name,
        "src": tags["src"],
        "dst": tags["dst"],
        "send_time": span.start,
        "deliver_time": span.end,
        "link_cost": tags.get("link_cost", 0.0),
        "link_delay": counters.get("link_delay", 0.0),
        "deliveries": counters.get("deliveries", 0),
        "tags": {k: v for k, v in tags.items() if k not in _HOP_TAGS},
    }


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

    Attributes:
        hops: Every hop span, in record order.
        roots: The root span of every tree, in creation order; each
            hop is linked under its cause as it is recorded.
    """

    def __init__(self) -> None:
        self.hops: list[Span] = []
        self.roots: list[Span] = []
        self._active: Span | None = None
        self._next_trace = 0
        self._next_span = 0

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    def activate(self, span: Span | None) -> Span | None:
        """Make ``span`` the active cause; returns the previous one."""
        prev = self._active
        self._active = span
        return prev

    def bind(self, action: Callable[[], Any]) -> Callable[[], Any]:
        """Close ``action`` over the current cause.

        The simulator wraps every scheduled callback with this, so
        local work (planning compute, drain timers) keeps its causal
        parent across virtual time.
        """
        span = self._active

        def bound() -> Any:
            prev = self.activate(span)
            try:
                return action()
            finally:
                self.activate(prev)

        return bound

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(
        self, kind: str, src: int, dst: int, time: float, cause: Span | None,
        link_cost: float = 0.0, link_delay: float = 0.0, **tags: Any,
    ) -> Span:
        """Record one hop span linked under ``cause`` (a fresh root
        when ``None``): a child keeps the trace id, parents under the
        cause's span id and is one hop deeper."""
        hop = 0 if cause is None else cause.tags["hop"] + 1
        span = Span(kind, {"src": src, "dst": dst, "hop": hop})
        if link_cost:
            span.tags["link_cost"] = link_cost
        span.tags.update(tags)
        if link_delay:
            span.counters["link_delay"] = link_delay
        span.start = time
        self._next_span += 1
        span.span_id = f"s{self._next_span:06d}"
        if cause is None:
            self._next_trace += 1
            span.trace_id = f"trace-{self._next_trace:04d}"
            self.roots.append(span)
        else:
            span.trace_id, span.parent_id = cause.trace_id, cause.span_id
            cause.children.append(span)
        self.hops.append(span)
        return span

    def new_trace(self, name: str, node: int = -1, **tags: Any) -> Span:
        """Open a new causal tree; returns (and activates) its root.

        Args:
            name: Root label (``deploy:q3``, ``migrate:q7``).
            node: Node the root activity happens on (the sink, usually).
            **tags: Extra annotations stored on the root span.
        """
        root = self._record(name, node, node, 0.0, None, **tags)
        root.end = 0.0
        self._active = root
        return root

    def record_hop(
        self, kind: str, src: int, dst: int, time: float, parent: Span | None = None,
        link_cost: float = 0.0, link_delay: float = 0.0, **tags: Any,
    ) -> Span:
        """Record a delivered synthetic hop (submission-chain relays,
        flow edges).

        The hop parents under ``parent`` (default: the active cause; a
        fresh root when neither exists).
        """
        cause = parent if parent is not None else self._active
        span = self._record(kind, src, dst, time, cause, link_cost, link_delay, **tags)
        span.end = time + link_delay
        span.incr("deliveries")
        return span

    # -- simulator hook points -----------------------------------------
    def on_send(
        self, sim, src: int, dst: int, message: Any, link_delay: float,
    ) -> tuple[Any, Span]:
        """Record one :meth:`Simulator.send` under the active cause;
        returns the message stamped with its hop."""
        span = self._record(
            type(message).__name__, src, dst, sim.now, self._active,
            self._link_cost(sim, src, dst), link_delay,
        )
        if hasattr(message, "trace"):
            message = dataclasses.replace(message, trace=span)
        return message, span

    @staticmethod
    def _link_cost(sim, src: int, dst: int) -> float:
        if src == dst or src < 0 or dst < 0:
            return 0.0
        return float(sim.network.cost_matrix()[src, dst])

    def on_deliver(self, span: Span, now: float) -> None:
        """Record the delivery of a sent hop."""
        span.incr("deliveries")
        span.end = now

    # -- data-flow accounting ------------------------------------------
    def record_flows(self, deployment, costs, rates, parent: Span | None = None) -> list[Span]:
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

        recorded: list[Span] = []
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
    @staticmethod
    def flow_cost(spans: Iterable[Span]) -> float:
        """Sum of the hops' data-flow ``link_cost`` tags (pass
        ``root.walk()`` for one tree)."""
        return sum(s.tags.get("link_cost", 0.0) for s in spans if s.tags.get("flow"))

    def _traces(self) -> dict[str, list[Span]]:
        """Every tree's hops in record order, keyed by trace id in
        creation order -- one pass over the hops."""
        traces: dict[str, list[Span]] = {root.trace_id: [] for root in self.roots}
        for span in self.hops:
            traces[span.trace_id].append(span)
        return traces

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-ready) form: every hop, grouped by trace."""
        return {
            "traces": [
                {
                    "trace_id": trace_id,
                    "hops": [_hop_dict(span) for span in spans],
                    "flow_cost": self.flow_cost(spans),
                }
                for trace_id, spans in self._traces().items()
            ]
        }

    def chrome_trace(self) -> list[dict[str, Any]]:
        """The collected hops in Chrome trace-event format.

        Load the JSON list into ``chrome://tracing`` or Perfetto: each
        trace is a process, each receiving node a thread, each hop a
        complete ("X") event spanning send to delivery; timestamps are
        virtual microseconds.  A hop's tags and counters are its args.
        """
        pids = {root.trace_id: i + 1 for i, root in enumerate(self.roots)}
        events: list[dict[str, Any]] = [
            {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": trace_id}}
            for trace_id, pid in pids.items()
        ]
        for span in self.hops:
            events.append({
                "name": span.name,
                "cat": "flow" if span.tags.get("flow") else "causal",
                "ph": "X",
                "pid": pids[span.trace_id],
                "tid": max(span.tags["dst"], 0),
                "ts": span.start * 1e6,
                "dur": max(span.duration * 1e6, 0.0),
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.tags,
                    **dict(sorted(span.counters.items())),
                },
            })
        return events

    def summary(self) -> dict[str, Any]:
        """Counters for reports."""
        return {"traces": len(self.roots), "hops": len(self.hops)}
