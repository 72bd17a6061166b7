"""Resource-aware placement: capacities, footprints, ledger, parking.

The paper's planners minimize pure communication cost; this package
adds the capacity dimension of the Benoit et al. resource-allocation
reports: per-node cpu/memory/bandwidth caps (:mod:`capacity`),
per-operator load estimation from input rates x selectivity x window
state (:mod:`footprint`), one service's reuse-credited utilization
accounting (:mod:`ledger`), a DP-facing constraint for bounded and
bi-criteria optimization (:mod:`constraint`), and the runtime loop --
admission gating, park/re-admit and drift repair (:mod:`manager`).

Everything is opt-in: services and planners take ``resources=None`` by
default, and even when armed, all-unbounded capacities leave every
decision byte-identical to a build without the package.
"""

from repro.resources.capacity import (
    Load,
    NodeCapacity,
    UNBOUNDED,
    ZERO_LOAD,
    uniform_capacities,
)
from repro.resources.constraint import PlacementConstraint
from repro.resources.footprint import JoinPricer, OperatorFootprint
from repro.resources.ledger import ResourceLedger, plan_node_loads
from repro.resources.manager import (
    ParkedQuery,
    ResourceConfig,
    ResourceManager,
    ensure_resources,
)

__all__ = [
    "Load",
    "NodeCapacity",
    "UNBOUNDED",
    "ZERO_LOAD",
    "uniform_capacities",
    "PlacementConstraint",
    "OperatorFootprint",
    "JoinPricer",
    "ResourceLedger",
    "plan_node_loads",
    "ResourceConfig",
    "ResourceManager",
    "ensure_resources",
    "ParkedQuery",
]
