"""The flow engine: live operators, flows and per-link utilization.

This is the data plane of the IFLOW substitution: it owns a
:class:`DeploymentState`, deploys/undeploys query plans, exposes the
instantaneous communication cost, and can break flows down to physical
links (flows follow cheapest paths) for utilization reporting --
the quantity a real testbed measures off its interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class FlowEngine:
    """Deploys query plans and tracks the live system's cost.

    Args:
        network: The physical network.
        rates: Rate model over the stream catalog.

    The engine owns a :class:`MetricRegistry` (:attr:`registry`) whose
    ``runtime_total_cost`` / ``runtime_operators`` gauges it sets after
    every deploy/undeploy/cost-change event.  The cost is summed when
    read (:meth:`Gauge.set_lazy`), and reads what an eager set at the last
    event would hold: every change to :attr:`state`'s flow costs goes
    through :meth:`deploy` / :meth:`undeploy` / ``refresh_*``, except
    ``restore_service`` into a pristine service, which has nothing pending.
    The operator count is eager: a federation adds views past the engine.
    """

    def __init__(self, network: Network, rates: RateModel) -> None:
        self.network = network
        self.rates = rates
        self.state = DeploymentState(
            network.cost_matrix(),
            rates.rate,
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
        move until the service's adaptivity loop migrates them).
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

    # ------------------------------------------------------------------
    def _tick(self, time: float | None) -> None:
        if time is not None:
            self.clock = time
        self._cost_gauge.set_lazy(self.state.total_cost)
        self._ops_gauge.set(float(self.state.num_operators))
