"""Discrete-event simulator with message-passing nodes.

The simulator advances a virtual clock through an event queue.  Nodes
(:class:`SimNode`) exchange messages whose delivery delay is the
network's shortest-path one-way delay between the sender and receiver,
plus an optional per-message transmission time -- the same 1-60 ms link
delays the paper's Emulab topology configures.

Send *middleware* (see :meth:`Simulator.add_send_middleware`) lets a
fault injector intercept every message and drop, delay or duplicate it.
With no middleware registered (the default), :meth:`Simulator.send`
takes the exact pre-middleware fast path, byte for byte.

A :class:`~repro.obs.causal.CausalTracer` attached via
:meth:`Simulator.attach_trace` observes every send: messages get
stamped with a child :class:`~repro.obs.causal.TraceContext`, scheduled
continuations are bound to the context active when they were scheduled,
and drops/deliveries/extra delays are accounted on the recorded hop.
With no tracer attached (the default) all of this is skipped and
behavior is byte-identical.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Any, Callable

from repro.network.graph import Network
from repro.obs.tracer import count
from repro.runtime.events import EventQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.causal import CausalTracer


class Simulator:
    """The event loop.

    Args:
        network: Physical network; its delay matrix times message
            deliveries.
    """

    def __init__(self, network: Network) -> None:
        self.network = network
        self.now = 0.0
        self._queue = EventQueue()
        self._nodes: dict[int, "SimNode"] = {}
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self._middleware: list[Callable[[int, int, Any, float], tuple | None]] = []
        self._trace: "CausalTracer | None" = None

    def attach_trace(self, tracer: "CausalTracer | None") -> None:
        """Attach (or detach, with ``None``) a causal tracer."""
        self._trace = tracer

    def add_send_middleware(
        self, middleware: Callable[[int, int, Any, float], tuple | None]
    ) -> None:
        """Register a send interceptor.

        ``middleware(src, dst, message, now)`` runs on every
        :meth:`send` and returns an action: ``None`` (deliver normally),
        ``("drop",)`` (lose the message), ``("delay", extra_seconds)``
        (deliver late) or ``("duplicate", extra_delay)`` (deliver twice,
        the copy ``extra_delay`` later).  The first middleware returning
        a non-``None`` action wins.
        """
        self._middleware.append(middleware)

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

        With a causal tracer attached, the action is bound to the trace
        context active *now*, so local continuations (planning compute,
        drain timers, retransmission timers) keep their causal parent.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        if self._trace is not None:
            action = self._trace.bind(action)
        self._queue.push(self.now + delay, action)

    def send(self, src: int, dst: int, message: Any, extra_delay: float = 0.0) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after the network delay."""
        if dst not in self._nodes:
            raise KeyError(f"no actor registered at node {dst}")
        delay = self.network.path_delay(src, dst) if src != dst else 0.0
        count("messages")
        hop = None
        if self._trace is not None:
            message, hop = self._trace.on_send(self, src, dst, message, delay)
            if extra_delay:
                self._trace.on_extra_delay(hop, extra_delay)

        def deliver() -> None:
            self.messages_delivered += 1
            if hop is not None:
                self._trace.on_deliver(hop, self.now)
                prev = self._trace.activate(hop.context)
                try:
                    self._nodes[dst].on_message(src, message)
                finally:
                    self._trace.deactivate(prev)
            else:
                self._nodes[dst].on_message(src, message)

        if self._middleware:
            for middleware in self._middleware:
                action = middleware(src, dst, message, self.now)
                if action is None:
                    continue
                kind = action[0]
                if kind == "drop":
                    self.messages_dropped += 1
                    if hop is not None:
                        self._trace.on_drop(
                            hop, action[1] if len(action) > 1 else None
                        )
                    return
                if kind == "delay":
                    extra_delay += float(action[1])
                    if hop is not None:
                        self._trace.on_extra_delay(hop, float(action[1]))
                elif kind == "duplicate":
                    self.messages_duplicated += 1
                    self._queue.push(
                        self.now + delay + extra_delay + float(action[1]), deliver
                    )
                else:  # pragma: no cover - defensive
                    raise ValueError(f"unknown middleware action {action!r}")
                break
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


class ReliableRun:
    """What the actors of one reliable protocol run share.

    Args:
        faults: The fault injector of the run.
        retry: Retransmission policy (``None``: no retransmissions).

    Attributes:
        retry_offsets: Cumulative retransmission offsets (virtual
            seconds after the first send).  Empty without faults: no
            retransmission machinery is scheduled.
        retransmissions: Messages re-sent so far.
    """

    def __init__(self, faults, retry) -> None:
        self.faults = faults
        self.retry_offsets: list[float] = (
            list(accumulate(retry.delays())) if faults.enabled and retry is not None else []
        )
        self.retransmissions = 0


class ReliableNode(SimNode):
    """An actor of a :class:`ReliableRun`, shared as ``self.ctx``."""

    def __init__(self, node_id: int, ctx: ReliableRun) -> None:
        super().__init__(node_id)
        self.ctx = ctx

    def reliable_send(self, dst: int, message: Any, delivered: Callable[[], bool]) -> None:
        """Send now; under faults, retransmit at the retry offsets until
        ``delivered()`` reports the protocol goal registered."""
        self.send(dst, message)
        for offset in self.ctx.retry_offsets:

            def maybe_resend() -> None:
                if not delivered():
                    self.ctx.retransmissions += 1
                    self.send(dst, message)

            self.sim.schedule(offset, maybe_resend)
