"""Node-failure handling (paper Section 2.1.1's fault-tolerance sketch).

"Failure of coordinator and operator nodes can be handled by maintaining
active back-ups of those nodes within each cluster."  This module
implements the recovery path: when a node fails,

1. it is removed from the hierarchy, with every cluster it coordinated
   electing its backup (the next-most-central member) -- handled by the
   maintenance machinery's re-election;
2. queries with operators or flow endpoints on the failed node are
   identified; the service
   (:meth:`~repro.service.service.StreamQueryService.handle_node_failure`)
   retires them and resubmits the survivors.

Failure here means *processing* failure: the node can no longer host
operators or coordinate, but packet forwarding through it is unaffected
(modeling a crashed stream-processing daemon on a live router; full
link-level failures would require network surgery and re-routing, out of
scope as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hierarchy.hierarchy import Cluster, Hierarchy
from repro.hierarchy.maintenance import remove_node
from repro.query.plan import Leaf


def backup_coordinator(cluster: Cluster, costs) -> int | None:
    """The member that takes over if the coordinator fails (second medoid).

    Returns ``None`` for single-member clusters (no backup exists; the
    failure collapses the cluster).
    """
    candidates = [m for m in cluster.members if m != cluster.coordinator]
    if not candidates:
        return None
    from repro.hierarchy.clustering import choose_medoid

    return choose_medoid(candidates, costs)


@dataclass
class FailureReport:
    """Outcome of one node failure.

    Attributes:
        node: The failed node.
        coordinator_roles: Levels at which the node was a coordinator.
        new_coordinators: level -> replacement coordinator elected.
        affected_queries: Queries that had operators or reused views on
            the node, or whose sink or a base stream's source it was.
    """

    node: int
    coordinator_roles: list[int] = field(default_factory=list)
    new_coordinators: dict[int, int] = field(default_factory=dict)
    affected_queries: list[str] = field(default_factory=list)


def fail_node(
    hierarchy: Hierarchy,
    node: int,
    engine=None,
) -> FailureReport:
    """Handle the failure of ``node``.

    Args:
        hierarchy: Updated in place (node removed, coordinators
            re-elected via the backup mechanism).
        node: The failing node.
        engine: Optional :class:`repro.runtime.engine.FlowEngine`; when
            given, affected queries are identified.

    Returns:
        A :class:`FailureReport`.
    """
    report = FailureReport(node=node)

    # Which clusters did the node coordinate?
    coordinated: list[Cluster] = []
    for level_clusters in hierarchy.levels:
        for cluster in level_clusters:
            if cluster.coordinator == node:
                coordinated.append(cluster)
    report.coordinator_roles = sorted(c.level for c in coordinated)

    remove_node(hierarchy, node)

    for cluster in coordinated:
        # The cluster object may have been dropped entirely (it emptied).
        still_alive = any(
            cluster in level_clusters for level_clusters in hierarchy.levels
        )
        if still_alive:
            report.new_coordinators[cluster.level] = cluster.coordinator

    if engine is None:
        return report

    # Identify queries touching the failed node: an operator, a reused
    # view or an endpoint there.
    affected: set[str] = set()
    for deployment in engine.state.deployments:
        touches = node in engine.rates.endpoints(deployment.query) or any(
            placed == node
            for subtree, placed in deployment.placement.items()
            if not (isinstance(subtree, Leaf) and subtree.is_base_stream)
        )
        if touches:
            affected.add(deployment.query.name)
    report.affected_queries = sorted(affected)
    return report
