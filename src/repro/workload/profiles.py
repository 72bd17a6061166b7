"""Capacity profiles: deterministic node-capacity generators.

Companions to the workload generator for the resource layer
(:mod:`repro.resources`): where :func:`generate_workload` draws the
*demand* side of an experiment, these draw the *supply* side -- a
``{node: NodeCapacity}`` map over a network.  Both profiles are frozen
and seeded, so a scenario is fully reproducible from its parameters.

* :class:`HotspotProfile` -- a uniform fleet with a seeded fraction of
  deliberately weak nodes.  The canonical stress scenario for the
  capacity-aware planner: a capacity-blind planner happily piles
  operators onto the cheap-to-reach weak nodes and overloads them.
* :class:`HeterogeneousFleetProfile` -- capacities keyed by the
  network's node kinds (transit routers beefy, stub nodes modest).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.network.graph import Network
from repro.resources.capacity import NodeCapacity
from repro.utils import SeedLike, as_generator


@dataclass(frozen=True)
class HotspotProfile:
    """Uniform capacities with a seeded fraction of weak nodes.

    Attributes:
        cpu: Per-node cpu capacity (tuples/sec of join input).
        memory: Per-node memory capacity (window-state units).
        bandwidth: Per-node bandwidth capacity (tuples/sec in+out).
        weak_fraction: Fraction of nodes (rounded down, at least one
            when positive) scaled down to ``weak_scale``.
        weak_scale: Capacity multiplier of a weak node.
        seed: Picks *which* nodes are weak; same seed + same network =
            same weak set.
    """

    cpu: float = 1000.0
    memory: float = 1000.0
    bandwidth: float = 1000.0
    weak_fraction: float = 0.25
    weak_scale: float = 0.1
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.weak_fraction <= 1.0:
            raise ValueError("weak_fraction must be in [0, 1]")
        if self.weak_scale <= 0:
            raise ValueError("weak_scale must be positive")

    def capacities(self, network: Network) -> dict[int, NodeCapacity]:
        """Draw the capacity map for ``network``."""
        nodes = sorted(network.nodes())
        rng = as_generator(self.seed)
        num_weak = int(len(nodes) * self.weak_fraction)
        if self.weak_fraction > 0:
            num_weak = max(1, num_weak)
        weak = set(rng.choice(nodes, size=num_weak, replace=False).tolist())
        strong = NodeCapacity(
            cpu=self.cpu, memory=self.memory, bandwidth=self.bandwidth
        )
        return {
            node: strong.scaled(self.weak_scale) if node in weak else strong
            for node in nodes
        }


#: The heterogeneous fleet's ``{kind: NodeCapacity}`` over the network's
#: :meth:`~repro.network.graph.Network.node_kind` values (transit-stub
#: networks use ``"transit"`` / ``"stub"``); kinds not listed are
#: unbounded.
FLEET_BY_KIND: Mapping[str, NodeCapacity] = MappingProxyType({
    "transit": NodeCapacity(cpu=4000.0, memory=4000.0, bandwidth=4000.0),
    "stub": NodeCapacity(cpu=500.0, memory=500.0, bandwidth=500.0),
})


@dataclass(frozen=True)
class HeterogeneousFleetProfile:
    """Capacities keyed by node kind (:data:`FLEET_BY_KIND`); every
    node of a kind alike."""

    def capacities(self, network: Network) -> dict[int, NodeCapacity]:
        """The capacity map for ``network``."""
        return {
            node: FLEET_BY_KIND.get(network.node_kind(node), NodeCapacity())
            for node in sorted(network.nodes())
        }
