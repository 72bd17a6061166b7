"""Discrete-event simulator with message-passing nodes: the event loop of
the tuple-level data plane (:mod:`repro.runtime.dataplane`).

Nodes (:class:`SimNode`) exchange messages, each delivered once after
the network's shortest-path one-way delay between sender and receiver.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.network.graph import Network
from repro.runtime.events import EventQueue

#: Events one run may process before it is taken for a runaway.
MAX_EVENTS = 5_000_000


class Simulator:
    """The event loop; ``network``'s path delays time deliveries."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.now = 0.0
        self._queue = EventQueue()
        self._nodes: dict[int, "SimNode"] = {}

    def register(self, node: "SimNode") -> None:
        """Attach a node actor to the simulation."""
        if node.node_id in self._nodes:
            raise ValueError(f"node {node.node_id} already registered")
        self._nodes[node.node_id] = node
        node.sim = self

    def schedule(self, delay: float, action: Callable[[], Any]) -> None:
        """Run ``action`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._queue.push(self.now + delay, action)

    def send(self, src: int, dst: int, message: Any) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after the path delay."""
        if dst not in self._nodes:
            raise KeyError(f"no actor registered at node {dst}")
        delay = self.network.path_delay(src, dst) if src != dst else 0.0
        node = self._nodes[dst]
        self._queue.push(self.now + delay, lambda: node.on_message(src, message))

    def run(self) -> float:
        """Process every event; returns the final simulation time."""
        processed = 0
        while self._queue:
            event = self._queue.pop()
            self.now = event.time
            event.action()
            processed += 1
            if processed > MAX_EVENTS:
                raise RuntimeError(f"exceeded {MAX_EVENTS} events; runaway simulation?")
        return self.now


class SimNode:
    """A message-handling actor bound to a physical node.

    Subclass and override :meth:`on_message`; use ``self.sim`` to send
    messages or schedule local work.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.sim: Simulator | None = None

    def send(self, dst: int, message: Any) -> None:
        """Send a message from this node."""
        assert self.sim is not None, "node is not registered with a simulator"
        self.sim.send(self.node_id, dst, message)

    def on_message(self, src: int, message: Any) -> None:  # pragma: no cover - abstract
        """Handle a delivered message."""
        raise NotImplementedError
