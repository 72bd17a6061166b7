"""Self-adaptive middleware (IFLOW's Middleware Layer).

"Self-adaptivity is incorporated into the system through the Middleware
Layer which re-triggers the query optimization algorithm when the
changes in network, load or data conditions demand recomputing of query
plans and deployments."

:class:`AdaptiveMiddleware` watches the network for condition changes
(it compares the network's version/cost matrix against what deployments
were priced at), re-prices the live flows, re-plans each deployed query
with its optimizer, and migrates a query when the re-planned cost beats
the current one by at least ``improvement_threshold`` (hysteresis, so
small fluctuations don't cause migration churn).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.optimizer import Optimizer
from repro.runtime.engine import FlowEngine


@dataclass
class Migration:
    """One executed query migration.

    Attributes:
        query_name: The migrated query.
        old_cost: Its cost before migration (at current prices).
        new_cost: Its cost after redeployment.
    """

    query_name: str
    old_cost: float
    new_cost: float

    @property
    def saving(self) -> float:
        """Absolute cost reduction per unit time."""
        return self.old_cost - self.new_cost


@dataclass
class MigrationReport:
    """Outcome of one adaptation epoch.

    Attributes:
        triggered: Whether any network change was detected.
        cost_before: Total system cost at current prices before adapting.
        cost_after: Total cost after migrations.
        migrations: Queries actually moved.
        considered: Queries evaluated for migration.
    """

    triggered: bool
    cost_before: float
    cost_after: float
    migrations: list[Migration] = field(default_factory=list)
    considered: int = 0


class AdaptiveMiddleware:
    """Re-triggers optimization when network conditions change.

    Args:
        engine: The flow engine running the deployments.
        optimizer: Planner used for re-optimization (typically the same
            hierarchical optimizer that deployed the queries; rebuild its
            hierarchy first if link costs changed drastically).
        improvement_threshold: Minimum relative per-query improvement
            (e.g. 0.05 = 5%) required before migrating.
    """

    def __init__(
        self,
        engine: FlowEngine,
        optimizer: Optimizer,
        improvement_threshold: float = 0.05,
    ) -> None:
        if not 0.0 <= improvement_threshold < 1.0:
            raise ValueError("improvement_threshold must be in [0, 1)")
        self.engine = engine
        self.optimizer = optimizer
        self.improvement_threshold = improvement_threshold

    @property
    def network_changed(self) -> bool:
        """Whether the network differs from what the engine last priced."""
        return self.engine.network.version != self.engine.priced_version

    def run_epoch(self, time: float | None = None) -> MigrationReport:
        """Detect changes, re-price, re-plan and migrate where worthwhile.

        Safe to call on a schedule; does nothing when the network is
        unchanged.
        """
        if not self.network_changed:
            return MigrationReport(
                triggered=False,
                cost_before=self.engine.total_cost(),
                cost_after=self.engine.total_cost(),
            )
        cost_before = self.engine.refresh_network(time)

        report = MigrationReport(
            triggered=True, cost_before=cost_before, cost_after=cost_before
        )
        # Examine queries in deployment order; skip internal shared views.
        for deployment in list(self.engine.state.deployments):
            name = deployment.query.name
            report.considered += 1
            current = self.engine.state.query_cost(name)
            if current <= 0.0:
                continue
            # Plan against a shadow without this query, so the candidate
            # cannot lean on operators that undeploying it would remove.
            shadow = self.engine.state.clone()
            shadow.undeploy(name)
            candidate = self.optimizer.plan(deployment.query, shadow)
            new_cost = shadow.cost_of(candidate)
            if new_cost < current * (1.0 - self.improvement_threshold):
                self.engine.undeploy(name, time)
                self.engine.deploy(candidate, time)
                report.migrations.append(
                    Migration(query_name=name, old_cost=current, new_cost=new_cost)
                )
        report.cost_after = self.engine.total_cost()
        return report

    def _repin_reuse(self, deployment, costs):
        """Re-point reused-view leaves at currently live providers.

        Returns the (possibly updated) deployment, or ``None`` when some
        reused view is no longer advertised anywhere.
        """
        from repro.core.reuse import resolve_reuse_leaves
        from repro.query.deployment import Deployment

        if all(leaf.is_base_stream for leaf in deployment.plan.leaves()):
            return deployment
        placement = dict(deployment.placement)
        try:
            resolve_reuse_leaves(
                deployment.query,
                deployment.plan,
                placement,
                self.engine.state.advertised_views(),
                costs,
            )
        except ValueError:
            return None
        return Deployment(
            query=deployment.query,
            plan=deployment.plan,
            placement=placement,
            stats=deployment.stats,
        )

    def rebalance_load(
        self, capacity: float, time: float | None = None, max_rounds: int = 5
    ) -> MigrationReport:
        """Move operators off overloaded nodes (processing capacity).

        IFLOW's middleware also reacts to *load* conditions: when a
        node's total operator input rate exceeds ``capacity``, the
        queries hosting operators there evacuate them (minimal
        forced-only refinement, even at some communication cost), and
        queries *reusing* a moved operator are re-planned after their
        providers so no reuse reference dangles.  Rounds repeat because
        evacuations can overload new nodes; the loop stops at a fixed
        point or after ``max_rounds``.
        """
        from repro.core.refinement import refine_placement
        from repro.query.plan import Leaf

        cost_before = self.engine.total_cost()
        report = MigrationReport(
            triggered=False, cost_before=cost_before, cost_after=cost_before
        )
        costs = self.engine.network.cost_matrix()
        rates = self.engine.rates
        for _ in range(max_rounds):
            hot = set(self.engine.overloaded_nodes(capacity))
            if not hot:
                break
            report.triggered = True

            deployments = list(self.engine.state.deployments)
            by_name = {d.query.name: d for d in deployments}
            affected = {
                d.query.name
                for d in deployments
                if any(d.placement[j] in hot for j in d.plan.joins())
            }
            # Transitive closure over reuse: a query reusing an operator
            # created by an affected query must be re-planned too.
            created: dict[str, set] = {
                d.query.name: {(d.signature(j.sources), d.placement[j]) for j in d.plan.joins()}
                for d in deployments
            }
            closure = set(affected)
            changed = True
            while changed:
                changed = False
                moved_ops = set().union(*(created[n] for n in closure)) if closure else set()
                for d in deployments:
                    if d.query.name in closure:
                        continue
                    reuses_moved = any(
                        (d.signature(leaf.view), d.placement[leaf]) in moved_ops
                        for leaf in d.plan.leaves()
                        if not leaf.is_base_stream
                    )
                    if reuses_moved:
                        closure.add(d.query.name)
                        changed = True

            if not closure:  # pragma: no cover - affected implies closure
                break
            old_costs = {
                name: self.engine.state.query_cost(name) for name in closure
            }
            for name in closure:
                self.engine.undeploy(name, time)

            # Redeploy providers before their reusers.
            def provider_names(name: str) -> set[str]:
                d = by_name[name]
                out: set[str] = set()
                for leaf in d.plan.leaves():
                    if leaf.is_base_stream:
                        continue
                    key = (d.signature(leaf.view), d.placement[leaf])
                    out.update(
                        other for other in closure
                        if other != name and key in created[other]
                    )
                return out

            order: list[str] = []
            remaining = set(closure)
            while remaining:
                ready = sorted(
                    n for n in remaining if not (provider_names(n) & remaining)
                )
                if not ready:  # pragma: no cover - reuse graph is acyclic
                    ready = sorted(remaining)[:1]
                for n in ready:
                    order.append(n)
                    remaining.discard(n)

            moved_any = False
            for name in order:
                deployment = by_name[name]
                report.considered += 1
                if name in affected:
                    refined, moves = refine_placement(
                        deployment, costs, rates,
                        forbidden=frozenset(hot), improve_moves=False,
                    )
                    refined = self._repin_reuse(refined, costs)
                    if refined is None:
                        # a reused view vanished entirely: full re-plan
                        refined = self.optimizer.plan(deployment.query, self.engine.state)
                        moves = 1
                    self.engine.deploy(refined, time)
                    if moves:
                        moved_any = True
                        report.migrations.append(
                            Migration(
                                query_name=name,
                                old_cost=old_costs[name],
                                new_cost=self.engine.state.query_cost(name),
                            )
                        )
                else:
                    # reuse-dependent: re-plan against the fresh state
                    self.engine.deploy(
                        self.optimizer.plan(deployment.query, self.engine.state), time
                    )
            if not moved_any:
                break
        report.cost_after = self.engine.total_cost()
        return report
