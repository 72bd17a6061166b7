"""Discrete-event simulator with message-passing nodes.

The simulator advances a virtual clock through an event queue.  Nodes
(:class:`SimNode`) exchange messages whose delivery delay is the
network's shortest-path one-way delay between the sender and receiver,
plus an optional per-message transmission time -- the same 1-60 ms link
delays the paper's Emulab topology configures.

Every message sent is delivered exactly once: faults act on the
control plane (:mod:`repro.resilience.faults`), not on simulated
messages.

A simulator built under ``with causal_tracing(tracer):`` records into
that :class:`~repro.obs.causal.CausalTracer`: every message is stamped
with its hop span, linked under the hop or root that caused it;
scheduled continuations are bound to the cause active when they were
scheduled, and each delivery is accounted on the hop.
With no causal tracer installed (the default) all of this is skipped
and behavior is byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.network.graph import Network
from repro.obs.tracer import count, current_causal
from repro.runtime.events import EventQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.causal import CausalTracer


class Simulator:
    """The event loop.

    Args:
        network: Physical network; its delay matrix times message
            deliveries.

    The causal tracer installed when the simulator is built (if any)
    records every message it carries.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.now = 0.0
        self._queue = EventQueue()
        self._nodes: dict[int, "SimNode"] = {}
        self.messages_delivered = 0
        self._trace: "CausalTracer | None" = current_causal()

    def register(self, node: "SimNode") -> None:
        """Attach a node actor to the simulation."""
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already registered")
        self._nodes[node.node_id] = node
        node.sim = self

    def node(self, node_id: int) -> "SimNode":
        """The registered actor for a node id."""
        return self._nodes[node_id]

    def schedule(self, delay: float, action: Callable[[], Any]) -> None:
        """Run ``action`` after ``delay`` seconds of virtual time.

        With a causal tracer recording, the action is bound to the causal
        span active *now*, so local continuations (planning compute,
        drain timers) keep their causal parent.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if self._trace is not None:
            action = self._trace.bind(action)
        self._queue.push(self.now + delay, action)

    def send(self, src: int, dst: int, message: Any, extra_delay: float = 0.0) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after the network
        delay plus ``extra_delay`` (transmission time)."""
        if dst not in self._nodes:
            raise KeyError(f"no actor registered at node {dst}")
        delay = self.network.path_delay(src, dst) if src != dst else 0.0
        count("messages")
        hop = None
        if self._trace is not None:
            message, hop = self._trace.on_send(self, src, dst, message, delay)

        def deliver() -> None:
            self.messages_delivered += 1
            if hop is not None:
                self._trace.on_deliver(hop, self.now)
                prev = self._trace.activate(hop)
                try:
                    self._nodes[dst].on_message(src, message)
                finally:
                    self._trace.activate(prev)
            else:
                self._nodes[dst].on_message(src, message)

        self._queue.push(self.now + delay + extra_delay, deliver)

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> float:
        """Process events (optionally up to virtual time ``until``).

        Returns the final simulation time.  ``max_events`` guards against
        runaway protocols.
        """
        processed = 0
        while self._queue:
            next_time = self._queue.peek_time()
            assert next_time is not None
            if until is not None and next_time > until:
                self.now = until
                return self.now
            event = self._queue.pop()
            self.now = event.time
            event.action()
            processed += 1
            if processed > max_events:
                raise RuntimeError(f"exceeded {max_events} events; runaway simulation?")
        return self.now


class SimNode:
    """A message-handling actor bound to a physical node.

    Subclass and override :meth:`on_message`; use ``self.sim`` to send
    messages or schedule local work (e.g. planning computation time).
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.sim: Simulator | None = None

    def send(self, dst: int, message: Any, extra_delay: float = 0.0) -> None:
        """Send a message from this node."""
        assert self.sim is not None, "node is not registered with a simulator"
        self.sim.send(self.node_id, dst, message, extra_delay=extra_delay)

    def on_message(self, src: int, message: Any) -> None:  # pragma: no cover - abstract
        """Handle a delivered message."""
        raise NotImplementedError

