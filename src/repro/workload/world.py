"""The seeded world every experiment runs on.

The paper's evaluation (Sections 2 and 4) runs on one triple: a GT-ITM
transit-stub network, a generated SPJ workload over it, and size-capped
cluster hierarchies.  :func:`build_world` builds it from one explicit
seed per part; :func:`world_seeds` derives those from a master seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.core.cost import RateModel
from repro.core.optimizer import Optimizer, make_optimizer
from repro.hierarchy import Hierarchy, build_hierarchy
from repro.network.graph import Network
from repro.network.topology import transit_stub_by_size
from repro.query.deployment import DeploymentState
from repro.utils import SeedLike, as_generator
from repro.workload.generator import Workload, WorkloadParams, generate_workload


@dataclass
class World:
    """One network + workload + hierarchies triple.

    Attributes:
        network: The generated transit-stub network.
        workload: The random workload bound to it.
        rates: Rate model over the workload's stream catalog.
        hierarchies: ``max_cs -> Hierarchy`` for every requested cluster
            size.
    """

    network: Network
    workload: Workload
    rates: RateModel
    hierarchies: dict[int, Hierarchy] = field(default_factory=dict)

    @classmethod
    def of(cls, workload: Workload, hierarchy_seeds: Mapping[int, int] | None = None) -> World:
        """The world around ``workload`` and its network, with a hierarchy
        per ``max_cs -> seed`` entry."""
        network = workload.network
        hierarchies = {
            cs: build_hierarchy(network, max_cs=cs, seed=seed)
            for cs, seed in (hierarchy_seeds or {}).items()
        }
        return cls(network, workload, workload.rate_model(), hierarchies)

    def hierarchy(self, max_cs: int | None = None) -> Hierarchy:
        """The hierarchy built with ``max_cs`` (must have been requested);
        with no ``max_cs``, the first one built."""
        if max_cs is None:
            return next(iter(self.hierarchies.values()))
        return self.hierarchies[max_cs]

    def fresh_state(self) -> DeploymentState:
        """A new empty deployment state priced at current network costs."""
        return DeploymentState(
            self.network.cost_matrix(),
            self.rates.rate,
            self.rates.source,
            reuse_inflation=self.rates.reuse_rate_inflation,
        )

    def optimizer(self, name: str, max_cs: int | None = None, **kwargs) -> Optimizer:
        """Build a planner bound to this world."""
        hierarchy = self.hierarchies.get(max_cs) if max_cs is not None else None
        if hierarchy is None and self.hierarchies:
            hierarchy = self.hierarchy()
        return make_optimizer(
            name, self.network, self.rates, hierarchy=hierarchy, **kwargs
        )


def build_world(
    num_nodes: int,
    params: WorkloadParams | None,
    *,
    network_seed: int,
    workload_seed: int,
    hierarchy_seeds: Mapping[int, int] | None = None,
) -> World:
    """A ``num_nodes`` transit-stub network seeded ``network_seed``, a
    ``params`` workload (``None``: the defaults) seeded ``workload_seed``,
    and a hierarchy per ``hierarchy_seeds`` entry (``max_cs -> seed``)."""
    network = transit_stub_by_size(num_nodes, seed=network_seed)
    return World.of(generate_workload(network, params, seed=workload_seed), hierarchy_seeds)


def world_seeds(seed: SeedLike, max_cs_values: Sequence[int] = (32,)) -> dict[str, Any]:
    """:func:`build_world`'s seeds drawn from one master seed: the
    network's, the workload's, then one hierarchy seed per
    ``max_cs_values`` entry, as the paper figures draw them (the lab
    and the CLI drills seed the network and the workload with their one
    seed and the hierarchy with 0)."""
    rng = as_generator(seed)
    network, workload, *hierarchies = (
        int(rng.integers(0, 2**31)) for _ in range(2 + len(max_cs_values))
    )
    return {
        "network_seed": network,
        "workload_seed": workload,
        "hierarchy_seeds": dict(zip(max_cs_values, hierarchies)),
    }
