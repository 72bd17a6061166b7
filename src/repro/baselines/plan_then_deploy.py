"""Static planning + optimal deployment (the strongest phased baseline).

The *plan phase* is a classical selectivity-driven optimizer: it picks
the join tree minimizing total intermediate volume (the sum of data
rates flowing along plan edges), completely ignoring the network.  When
reuse is enabled, advertised derived views participate as leaf
alternatives during planning -- this matches the paper's Figure 2 setup
where "plan, then deploy" approaches had operator reuse enabled.

The *deploy phase* then places the fixed tree optimally on the whole
network (tree-placement DP = exhaustive assignment search).  Any gap
between this baseline and the joint optimizers is therefore purely the
cost of fixing the join order before looking at the network.
"""

from __future__ import annotations

from repro.core.cost import RateModel
from repro.core.enumeration import connected_join_trees
from repro.core.placement import nominal_assignments, optimal_tree_placement
from repro.network.graph import Network
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import Query

#: Defensive cap on the variants :func:`deploy_time_reuse_variants` returns.
REUSE_VARIANT_CAP = 64


def reusable_views(query: Query, state: DeploymentState | None) -> dict[frozenset[str], list[int]]:
    """Advertised views usable by ``query``: sources -> ad nodes.

    A view qualifies when its signature matches the query's restriction
    to the same sources (same predicates and filters).
    """
    if state is None:
        return {}
    out: dict[frozenset[str], list[int]] = {}
    for sig, nodes in state.advertised_views().items():
        if len(sig.sources) > 1 and sig.sources <= frozenset(query.sources):
            if sig == query.view_signature(sig.sources):
                out[sig.sources] = sorted(nodes)
    return out


def best_static_tree(query: Query, rates: RateModel) -> tuple[PlanNode, int]:
    """The minimum-intermediate-volume tree for ``query``.

    Returns ``(tree, trees_examined)``.  The plan phase is network- and
    deployment-oblivious (classical selectivity-only optimization): the
    paper's phased baselines discover reuse *after* fixing the order (see
    :func:`deploy_time_reuse_variants`).
    """
    if len(query.sources) == 1:
        return Leaf(frozenset(query.sources)), 1
    trees = connected_join_trees(query)
    best: tuple[float, PlanNode] | None = None
    for tree in trees:
        flow = rates.flow_rates(query, tree)
        volume = sum(flow[c] for j in tree.joins() for c in (j.left, j.right))
        volume += flow[tree]
        if best is None or volume < best[0] - 1e-12:
            best = (volume, tree)
    assert best is not None
    return best[1], len(trees)


def deploy_time_reuse_variants(
    tree: PlanNode, reusable: dict[frozenset[str], list[int]]
) -> list[PlanNode]:
    """The fixed tree plus variants collapsing matching subtrees to reuse.

    A phased approach can still reuse a deployed operator when the
    *already chosen* join order happens to contain a subtree whose
    signature matches an advertisement -- "the pre-defined join order
    may prevent us from reusing" otherwise.  Returns every combination
    of such collapses (the original tree first), at most
    :data:`REUSE_VARIANT_CAP`.
    """
    cap = REUSE_VARIANT_CAP
    out = _reuse_variants(tree, reusable, cap)
    # Keep the uncollapsed tree first for deterministic tie-breaks.
    out.sort(key=lambda t: 0 if t == tree else 1)
    return out[:cap]


def _reuse_variants(
    node: PlanNode, reusable: dict[frozenset[str], list[int]], cap: int
) -> list[PlanNode]:
    if isinstance(node, Leaf):
        return [node]
    assert isinstance(node, Join)
    combos: list[PlanNode] = []
    for left in _reuse_variants(node.left, reusable, cap):
        for right in _reuse_variants(node.right, reusable, cap):
            if len(combos) >= cap:
                break
            combos.append(Join(left, right))
    if node.sources in reusable:
        combos.append(Leaf(node.sources))
    return combos[: cap + 1]


def leaf_position_map(
    tree: PlanNode,
    rates: RateModel,
    reusable: dict[frozenset[str], list[int]],
) -> dict[Leaf, list[int]]:
    """Placement candidates per leaf: source node, or advertisement nodes."""
    positions: dict[Leaf, list[int]] = {}
    for leaf in tree.leaves():
        if leaf.is_base_stream:
            positions[leaf] = [rates.source(leaf.stream)]
        else:
            nodes = reusable.get(leaf.view)
            if not nodes:
                raise ValueError(f"no advertisement for reused view {leaf.label}")
            positions[leaf] = list(nodes)
    return positions


class PlanThenDeploy:
    """Selectivity-static plan + optimal network placement.

    Args:
        network: The physical network.
        rates: Rate model over the stream catalog.
        reuse: Let advertised views participate in the plan phase.
        candidates_fn: Optional callable returning the placement-
            candidate node ids.  Defaults to every network node; the
            resilience layer passes the live hierarchy members so a
            degraded plan never lands operators on a crashed or
            quarantined node.
    """

    name = "plan-then-deploy"

    def __init__(
        self,
        network: Network,
        rates: RateModel,
        reuse: bool = True,
        candidates_fn=None,
    ) -> None:
        self.network = network
        self.rates = rates
        self.reuse = reuse
        self.candidates_fn = candidates_fn

    def _candidates(self) -> list[int]:
        if self.candidates_fn is None:
            return self.network.nodes()
        return list(self.candidates_fn())

    def plan(self, query: Query, state: DeploymentState | None = None) -> Deployment:
        """Fix the volume-optimal tree obliviously, then place it optimally.

        Reuse enters only at deploy time: if the fixed order contains a
        subtree matching an advertised view, collapsing it is evaluated
        as a placement alternative.
        """
        costs = self.network.cost_matrix()
        reusable = reusable_views(query, state) if self.reuse else {}
        static_tree, trees_examined = best_static_tree(query, self.rates)
        stats = {
            "algorithm": self.name,
            "trees_examined": trees_examined,
            "plans_examined": trees_examined
            + nominal_assignments(static_tree, self.network.num_nodes),
        }
        if isinstance(static_tree, Leaf) and static_tree.is_base_stream:
            return Deployment(
                query=query,
                plan=static_tree,
                placement={static_tree: self.rates.source(static_tree.stream)},
                stats=stats,
            )
        best: tuple[float, PlanNode, dict] | None = None
        for tree in deploy_time_reuse_variants(static_tree, reusable):
            positions = leaf_position_map(tree, self.rates, reusable)
            result = optimal_tree_placement(
                tree,
                self._candidates(),
                costs,
                positions,
                self.rates.flow_rates(query, tree),
                sink=query.sink,
            )
            if best is None or result.cost < best[0] - 1e-12:
                best = (result.cost, tree, result.placement)
        assert best is not None
        cost, tree, placement = best
        stats["cost_estimate"] = cost
        return Deployment(query=query, plan=tree, placement=placement, stats=stats)
