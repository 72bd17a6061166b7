"""Node capacities and operator loads.

The paper's placement minimizes pure communication cost; the Benoit et
al. resource-allocation reports add the missing physical dimension: each
node has finite computation, memory and bandwidth, and an operator's
demand on them follows from its input rates.  This module gives both
sides of that inequality a type:

* :class:`NodeCapacity` -- a node's caps, per dimension, with ``inf``
  meaning "unbounded" (the default, so a capacity-less build prices
  exactly like the paper's).
* :class:`Load` -- a demand vector in the same three dimensions, closed
  under addition, with :meth:`Load.utilization` mapping a (load,
  capacity) pair to the max-dimension utilization ratio the planners
  bound.

Capacities are attached *externally* -- a ``{node: NodeCapacity}``
mapping alongside the :class:`~repro.network.graph.Network` -- so the
network/topology layer stays untouched and unbounded remains the
ambient default everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.network.graph import Network

_INF = float("inf")


@dataclass(frozen=True)
class NodeCapacity:
    """Per-node resource caps; ``inf`` in a dimension means unbounded.

    Attributes:
        cpu: Processing budget in tuple-rate units (tuples/tick the node
            can push through join operators).
        memory: State budget in tuple units (window state held).
        bandwidth: Network budget in tuple-rate units (operator input +
            output traffic through the node).
    """

    cpu: float = _INF
    memory: float = _INF
    bandwidth: float = _INF

    def __post_init__(self) -> None:
        for dim in ("cpu", "memory", "bandwidth"):
            value = getattr(self, dim)
            if not value > 0:
                raise ValueError(f"{dim} capacity must be positive, got {value}")

    @property
    def unbounded(self) -> bool:
        """Whether every dimension is infinite."""
        return (
            math.isinf(self.cpu)
            and math.isinf(self.memory)
            and math.isinf(self.bandwidth)
        )

    def scaled(self, factor: float) -> "NodeCapacity":
        """This capacity with every finite dimension multiplied."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return NodeCapacity(
            cpu=self.cpu * factor,
            memory=self.memory * factor,
            bandwidth=self.bandwidth * factor,
        )

    def to_dict(self) -> dict:
        """JSON-able form (``inf`` rendered as ``None``)."""
        return {
            dim: (None if math.isinf(v) else v)
            for dim, v in (
                ("cpu", self.cpu),
                ("memory", self.memory),
                ("bandwidth", self.bandwidth),
            )
        }


#: The ambient default: no dimension bounded anywhere.
UNBOUNDED = NodeCapacity()


@dataclass(frozen=True)
class Load:
    """A resource demand vector (same dimensions as :class:`NodeCapacity`)."""

    cpu: float = 0.0
    memory: float = 0.0
    bandwidth: float = 0.0

    def __add__(self, other: "Load") -> "Load":
        return Load(
            cpu=self.cpu + other.cpu,
            memory=self.memory + other.memory,
            bandwidth=self.bandwidth + other.bandwidth,
        )

    def utilization(self, capacity: NodeCapacity) -> float:
        """Max-dimension utilization ratio against ``capacity``.

        Unbounded dimensions contribute 0, so a fully unbounded node is
        always at utilization 0 regardless of load.
        """
        ratios = (
            0.0 if math.isinf(capacity.cpu) else self.cpu / capacity.cpu,
            0.0 if math.isinf(capacity.memory) else self.memory / capacity.memory,
            0.0 if math.isinf(capacity.bandwidth) else self.bandwidth / capacity.bandwidth,
        )
        return max(ratios)

    def to_dict(self) -> dict:
        return {"cpu": self.cpu, "memory": self.memory, "bandwidth": self.bandwidth}


#: The zero demand vector.
ZERO_LOAD = Load()


def exact_sum(loads: Iterable[Load]) -> Load:
    """The correctly rounded sum of ``loads`` in every dimension, so the
    order they come in cannot change a bit of it."""
    loads = list(loads)
    return Load(
        cpu=math.fsum(load.cpu for load in loads),
        memory=math.fsum(load.memory for load in loads),
        bandwidth=math.fsum(load.bandwidth for load in loads),
    )


def uniform_capacities(
    network: Network,
    cpu: float = _INF,
    memory: float = _INF,
    bandwidth: float = _INF,
) -> dict[int, NodeCapacity]:
    """The same :class:`NodeCapacity` on every node of ``network``."""
    cap = NodeCapacity(cpu=cpu, memory=memory, bandwidth=bandwidth)
    return {node: cap for node in network.nodes()}
