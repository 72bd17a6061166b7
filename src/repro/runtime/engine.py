"""The flow engine: live operators, flows and per-link utilization.

This is the data plane of the IFLOW substitution: it owns a
:class:`DeploymentState`, deploys/undeploys query plans, exposes the
instantaneous communication cost, and can break flows down to physical
links (flows follow cheapest paths) for utilization reporting --
the quantity a real testbed measures off its interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost import RateModel
from repro.network.graph import Network
from repro.network.routing import path_links
from repro.obs.metrics import MetricRegistry
from repro.query.deployment import Deployment, DeploymentState


@dataclass
class LinkLoad:
    """Aggregate data rate crossing one physical link.

    Attributes:
        u: Link endpoint.
        v: Link endpoint.
        rate: Total data units/second crossing the link (both directions).
        cost: Link traversal cost per data unit.
    """

    u: int
    v: int
    rate: float
    cost: float

    @property
    def cost_per_second(self) -> float:
        """Communication spend on this link per unit time."""
        return self.rate * self.cost


class FlowEngine:
    """Deploys query plans and tracks the live system's cost.

    Args:
        network: The physical network.
        rates: Rate model over the stream catalog.

    The engine owns a :class:`MetricRegistry` (:attr:`registry`) whose
    ``runtime_total_cost`` / ``runtime_operators`` gauges it sets after
    every deploy/undeploy/cost-change event.
    """

    def __init__(self, network: Network, rates: RateModel) -> None:
        self.network = network
        self.rates = rates
        self.state = DeploymentState(
            network.cost_matrix(),
            rates.rate_for,
            rates.source,
            reuse_inflation=rates.reuse_rate_inflation,
        )
        self.registry = registry = MetricRegistry()
        self._cost_gauge = registry.gauge(
            "runtime_total_cost",
            "Instantaneous total communication cost per unit time.",
        )
        self._ops_gauge = registry.gauge(
            "runtime_operators",
            "Live join operators across all deployments.",
        )
        self.clock = 0.0
        self._priced_version = network.version

    @property
    def priced_version(self) -> int:
        """Network version the engine's flow costs were last priced at."""
        return self._priced_version

    # ------------------------------------------------------------------
    def deploy(self, deployment: Deployment, time: float | None = None) -> float:
        """Install a deployment; returns the marginal cost per unit time."""
        added = self.state.apply(deployment)
        self._tick(time)
        return added

    def undeploy(self, query_name: str, time: float | None = None) -> float:
        """Remove a query; returns the reclaimed cost per unit time."""
        reclaimed = self.state.undeploy(query_name)
        self._tick(time)
        return reclaimed

    def total_cost(self) -> float:
        """Instantaneous total communication cost per unit time."""
        return self.state.total_cost()

    def refresh_network(self, time: float | None = None) -> float:
        """Re-read the network's cost matrix after condition changes.

        Existing flows keep their endpoints but are re-priced along the
        new cheapest paths (IFLOW's routing adapts; placements do not
        move until the middleware migrates them).
        """
        total = self.state.recompute_costs(self.network.cost_matrix())
        self._priced_version = self.network.version
        self._tick(time)
        return total

    def refresh_rates(self, time: float | None = None) -> float:
        """Re-price every live flow under the current rate model.

        The statistics counterpart of :meth:`refresh_network`: after a
        rate publication, flows keep their endpoints but ship at the
        newly observed rates.  Returns the new total cost.
        """
        total = self.state.recompute_rates()
        self._tick(time)
        return total

    def link_loads(self) -> list[LinkLoad]:
        """Per-link aggregate rates of all live flows (cheapest-path routed)."""
        loads: dict[tuple[int, int], float] = {}
        for flow in self.state.flows():
            if flow.src == flow.dest:
                continue
            for u, v in path_links(self.network, flow.src, flow.dest):
                key = (u, v) if u < v else (v, u)
                loads[key] = loads.get(key, 0.0) + flow.rate
        return [
            LinkLoad(u=u, v=v, rate=rate, cost=self.network.link(u, v).cost)
            for (u, v), rate in sorted(loads.items())
        ]

    def hottest_links(self, top: int = 5) -> list[LinkLoad]:
        """The ``top`` links by crossing rate."""
        return sorted(self.link_loads(), key=lambda l: -l.rate)[:top]

    def node_loads(self) -> dict[int, float]:
        """Processing load per node: total input rate of hosted operators.

        A join operator's load is the sum of its children's rates
        (probing/insertion work is proportional to arrivals); co-located
        inputs count even though they generate no network flow.  The
        paper's motivating example ("node N2 may be overloaded") is about
        exactly this quantity.
        """
        loads: dict[int, float] = {}
        for deployment in self.state.deployments:
            query = deployment.query
            for join in deployment.plan.joins():
                node = deployment.placement[join]
                incoming = sum(
                    self.rates.rate_for(query, child.sources)
                    for child in (join.left, join.right)
                )
                loads[node] = loads.get(node, 0.0) + incoming
        return loads

    def overloaded_nodes(self, capacity: float) -> list[int]:
        """Nodes whose processing load exceeds ``capacity``."""
        return sorted(n for n, load in self.node_loads().items() if load > capacity)

    # ------------------------------------------------------------------
    def _tick(self, time: float | None) -> None:
        if time is not None:
            self.clock = time
        self._cost_gauge.set(self.total_cost())
        self._ops_gauge.set(float(self.state.num_operators))
