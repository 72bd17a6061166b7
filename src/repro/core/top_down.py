"""The Top-Down algorithm (paper Section 2.2).

A query enters at the root of the hierarchy.  The planning coordinator
of each cluster exhaustively enumerates join trees over its task's
inputs (considering locally advertised derived streams as reuse leaves)
and assigns operators to cluster members optimally -- we use the
tree-placement DP, which finds the same optimum as the paper's literal
assignment enumeration while the *nominal* search-space counter tracks
what the paper counts.  The chosen assignment partitions the operator
tree into per-member fragments, each of which is re-planned one level
down inside that member's cluster, until operators reach physical nodes
at level 1.

Cross-cluster endpoints are represented by the neighbouring member's
coordinator node, so all intermediate costs are the level-l estimates of
Theorem 1; the realized deployment always references actual nodes, and
Theorem 3 bounds the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.cost import RateModel
from repro.core.reuse import input_partitions, resolve_reuse_leaves, substitute_views
from repro.core.search import TreeSearch
from repro.hierarchy.advertisements import AdvertisementIndex, ViewLookup
from repro.hierarchy.hierarchy import Cluster, Hierarchy
from repro.obs.explain import explained_plan
from repro.obs.tracer import NULL_SPAN, span
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import Query


@dataclass(frozen=True)
class _Input:
    """One input view of a planning task.

    kind:
        ``"base"``   -- a base stream available under the task's cluster;
        ``"reuse"``  -- an advertised derived view chosen at this or an
                        upper level, available under the task's cluster;
        ``"extern"`` -- output of another fragment or a view outside the
                        cluster, pinned at fixed physical node(s).
    """

    view: frozenset[str]
    kind: str
    positions: tuple[int, ...] = ()


@dataclass
class _TaskPlan:
    """Concrete outcome of planning one task: tree + physical placement.

    Leaves of ``tree`` are base streams, reused views, or placeholders
    for extern inputs (substituted away by the caller).
    """

    tree: PlanNode
    placement: dict[PlanNode, int]
    est_cost: float


class TopDownOptimizer:
    """Joint plan/placement optimization guided by the hierarchy, top-down.

    Cross-product join trees are skipped whenever a connected one
    exists (the paper's S9).

    Args:
        hierarchy: Virtual cluster hierarchy over the network.
        rates: Rate model over the base stream catalog.
        ads: Advertisement index (auto-created, with every base stream
            advertised at its source, when omitted).
        reuse: Consider advertised derived views while planning.

    Attributes:
        resources: The :class:`~repro.resources.ResourceManager` a
            service arming the resource layer binds here (``None``
            until then).  When set (and constrained), every placement
            is optimized under its utilization bound / bi-criteria
            objective and jointly validated; trees with no feasible
            assignment are skipped and an
            :class:`~repro.errors.InfeasiblePlacementError` is raised
            when nothing survives.  ``None`` keeps planning
            byte-identical to a build without the package.
    """

    name = "top-down"

    def __init__(
        self,
        hierarchy: Hierarchy,
        rates: RateModel,
        ads: AdvertisementIndex | None = None,
        reuse: bool = True,
    ) -> None:
        self.hierarchy = hierarchy
        self.rates = rates
        self.reuse = reuse
        self.resources = None
        if ads is None:
            ads = AdvertisementIndex(hierarchy)
            for name, spec in rates.streams.items():
                ads.advertise_base(name, spec.source)
        self.ads = ads

    # ------------------------------------------------------------------
    def plan(
        self,
        query: Query,
        state: DeploymentState | None = None,
        explain: bool = False,
    ) -> Deployment:
        """Plan and place ``query``; returns the chosen deployment.

        When ``state`` is given (and reuse is on), its deployed views are
        folded into the advertisement index first.  With ``explain=True``
        the optimization is traced (on a one-shot tracer if none is
        installed) and the deployment carries a
        :class:`~repro.obs.explain.PlanExplanation`.
        """
        return explained_plan(self, query, state, explain, self.hierarchy.network)

    def _plan(self, query: Query, state: DeploymentState | None) -> Deployment:
        if state is not None and self.reuse:
            self.ads.sync_from_state(state)
        costs = self.hierarchy.network.cost_matrix()
        stats: dict = {
            "algorithm": self.name,
            "plans_examined": 0,
            "trees_examined": 0,
            "tasks": 0,
            "levels_visited": [],
            # One entry per planning task, for the runtime protocol
            # simulator: which coordinator planned, at which level, how
            # many plans it examined, and which task spawned it.
            "task_trace": [],
        }

        if len(query.sources) == 1:
            leaf = Leaf(frozenset(query.sources))
            return Deployment(
                query=query,
                plan=leaf,
                placement={leaf: self.rates.source(query.sources[0])},
                stats=stats,
            )

        root = self.hierarchy.root
        # The query is routed from the sink up its coordinator chain to
        # the top-level coordinator (protocol-simulation metadata).
        chain = [
            self.hierarchy.representative(query.sink, level)
            for level in range(2, self.hierarchy.height + 1)
        ]
        chain.append(root.coordinator)
        stats["submit_chain"] = [
            node for i, node in enumerate(chain) if i == 0 or node != chain[i - 1]
        ]
        inputs = []
        for stream in query.sources:
            member = self.ads.base_member(root, stream)
            if member is None:
                raise ValueError(
                    f"stream {stream!r} is not advertised anywhere in the hierarchy"
                )
            inputs.append(_Input(view=frozenset((stream,)), kind="base"))
        constraint = (
            self.resources.constraint_for(query)
            if self.resources is not None
            else None
        )
        task = self._plan_task(
            root, tuple(inputs), query.sink, query, costs, stats,
            self.rates.flow_pricer(query), self.ads.reusable_views(query),
            parent_task=-1, constraint=constraint,
        )

        tree, placement = task.tree, dict(task.placement)
        self._pin_base_leaves(tree, placement)
        # Only the plan's own reused leaves are looked up, not the index.
        providers = {}
        for leaf in tree.leaves():
            if not leaf.is_base_stream:
                sig = query.view_signature(leaf.view)
                providers[sig] = self.ads.view_nodes(sig)
        resolve_reuse_leaves(query, tree, placement, providers, costs)
        stats["est_cost"] = task.est_cost
        return Deployment(query=query, plan=tree, placement=placement, stats=stats)

    # ------------------------------------------------------------------
    def _plan_task(
        self,
        cluster: Cluster,
        inputs: tuple[_Input, ...],
        out_target: int,
        query: Query,
        costs: np.ndarray,
        stats: dict,
        flow: Callable[[PlanNode], float],
        reusable: ViewLookup,
        parent_task: int = -1,
        constraint=None,
    ) -> _TaskPlan:
        """Plan the join over ``inputs`` within ``cluster``, recursively.

        ``flow`` is the ``plan()`` call's one
        :meth:`~repro.core.cost.RateModel.flow_pricer`, ``reusable`` its
        one :meth:`AdvertisementIndex.reusable_views` lookup.
        """
        stats["tasks"] += 1
        stats["levels_visited"].append(cluster.level)
        task_idx = len(stats["task_trace"])
        trace_entry = {
            "level": cluster.level,
            "node": cluster.coordinator,
            "plans": 0,
            "parent": parent_task,
            "deploy_nodes": [],
        }
        stats["task_trace"].append(trace_entry)
        plans_before = stats["plans_examined"]
        members = cluster.members
        target_pos = self._resolve_target(cluster, out_target)

        with span(
            "task", level=cluster.level, coordinator=cluster.coordinator,
            inputs=len(inputs),
        ) as task_span:
            search = TreeSearch(
                query, members, costs, flow, target_pos,
                connected_only=True, stats=stats, span=task_span, constraint=constraint,
            )
            leaf_sets = self._candidate_leaf_sets(cluster, inputs, reusable)
            # A view names the same input in every leaf set it appears in.
            by_view = {inp.view: inp for leaf_inputs in leaf_sets for inp in leaf_inputs}
            best = search.add_leaf_sets([
                {inp.view: self._resolve_positions(cluster, inp, query) for inp in inps}
                for inps in leaf_sets
            ])
            est_cost, tree, placement = best.cost, best.tree, best.placement
            leaf_meta = {leaf: by_view[leaf.view] for leaf in tree.leaves()}
            trace_entry["plans"] = stats["plans_examined"] - plans_before
            if task_span is not NULL_SPAN:
                task_span.tag(chosen=tree.pretty(), est_cost=est_cost)
            reused = sum(1 for meta in leaf_meta.values() if meta.kind == "reuse")
            if reused:
                task_span.incr("reuse_leaves_chosen", reused)

            if cluster.level == 1 or isinstance(tree, Leaf):
                trace_entry["deploy_nodes"] = sorted(
                    {placement[j] for j in tree.joins()}
                )
                return _TaskPlan(tree=tree, placement=dict(placement), est_cost=est_cost)
            return self._recurse_fragments(
                cluster, tree, placement, leaf_meta, out_target, query, costs, stats,
                est_cost, task_idx, flow, reusable, constraint=constraint,
            )

    # ------------------------------------------------------------------
    def _recurse_fragments(
        self,
        cluster: Cluster,
        tree: PlanNode,
        placement: dict[PlanNode, int],
        leaf_meta: dict[PlanNode, _Input],
        out_target: int,
        query: Query,
        costs: np.ndarray,
        stats: dict,
        est_cost: float,
        task_idx: int,
        flow: Callable[[PlanNode], float],
        reusable: ViewLookup,
        constraint=None,
    ) -> _TaskPlan:
        """Split the chosen tree into per-member fragments and recurse."""
        # Fragment id: the member a join was assigned to, with contiguous
        # joins of one member forming one fragment (maximal components).
        fragment_of: dict[PlanNode, int] = {}
        fragments: dict[int, dict] = {}
        # Pre-order, left subtree first: fragments are numbered in tree order.
        stack: list[tuple[PlanNode, Join | None, int]] = [(tree, None, 0)]
        while stack:
            node, parent, depth = stack.pop()
            if isinstance(node, Leaf):
                continue
            assert isinstance(node, Join)
            member = placement[node]
            parent_fragment = fragment_of[parent] if parent is not None else None
            if (
                parent_fragment is not None
                and fragments[parent_fragment]["member"] == member
            ):
                frag_id = parent_fragment
            else:
                frag_id = len(fragments)
                fragments[frag_id] = {
                    "member": member, "joins": [], "root": node,
                    "parent": parent, "depth": depth,
                }
            fragment_of[node] = frag_id
            fragments[frag_id]["joins"].append(node)
            stack.append((node.right, node, depth + 1))
            stack.append((node.left, node, depth + 1))

        # Plan every fragment one level down.
        fragment_plans: dict[int, _TaskPlan] = {}
        # Topological order: deeper fragments first so substitution works
        # bottom-up (a stable sort: equally deep fragments in tree order).
        ordered = sorted(fragments, key=lambda f: -fragments[f]["depth"])
        for frag_id in ordered:
            frag = fragments[frag_id]
            member = frag["member"]
            frag_inputs: list[_Input] = []
            for join in frag["joins"]:
                for child in (join.left, join.right):
                    if isinstance(child, Join) and fragment_of[child] == frag_id:
                        continue
                    frag_inputs.append(
                        self._fragment_input(child, member, placement, leaf_meta, fragment_of, fragments)
                    )
            parent = frag["parent"]
            frag_target = out_target if parent is None else placement[parent]
            child_cluster = cluster.children[member]
            fragment_plans[frag_id] = self._plan_task(
                child_cluster, tuple(frag_inputs), frag_target, query, costs, stats,
                flow, reusable, parent_task=task_idx, constraint=constraint,
            )

        # Stitch: substitute fragment outputs into their consumers.
        concrete: dict[int, tuple[PlanNode, dict[PlanNode, int]]] = {}
        for frag_id in ordered:  # deepest first: dependencies already concrete
            plan = fragment_plans[frag_id]
            replacements = {
                fragments[dep]["root"].sources: concrete[dep]
                for dep in ordered
                if dep != frag_id and dep in concrete
            }
            new_tree, new_placement = substitute_views(plan.tree, plan.placement, replacements)
            concrete[frag_id] = (new_tree, new_placement)

        root_frag = fragment_of[tree]  # tree root is a join here
        final_tree, final_placement = concrete[root_frag]
        return _TaskPlan(tree=final_tree, placement=final_placement, est_cost=est_cost)

    # ------------------------------------------------------------------
    def _fragment_input(
        self,
        child: PlanNode,
        member: int,
        placement: dict[PlanNode, int],
        leaf_meta: dict[PlanNode, _Input],
        fragment_of: dict[PlanNode, int],
        fragments: dict[int, dict],
    ) -> _Input:
        if isinstance(child, Join):
            # Output of a different fragment: pinned at that member's node.
            other_member = fragments[fragment_of[child]]["member"]
            return _Input(view=child.sources, kind="extern", positions=(other_member,))
        assert isinstance(child, Leaf)
        meta = leaf_meta[child]
        leaf_member = placement[child]
        if meta.kind == "extern" or leaf_member != member:
            # Located under another member (or already pinned): cross edge.
            pin = meta.positions if meta.kind == "extern" else (leaf_member,)
            return _Input(view=child.view, kind="extern", positions=tuple(pin))
        # Owned by this member: re-resolve inside the child cluster.
        return _Input(view=child.view, kind=meta.kind)

    def _candidate_leaf_sets(
        self,
        cluster: Cluster,
        inputs: tuple[_Input, ...],
        reusable: ViewLookup,
    ) -> list[tuple[_Input, ...]]:
        """Leaf-set alternatives: the inputs as-is, plus reuse groupings."""
        identity = tuple(inputs)
        if not self.reuse:
            return [identity]
        groupable = [inp for inp in inputs if inp.kind != "extern"]
        if len(groupable) < 2:
            return [identity]
        advertised = {sig.sources for sig in reusable(cluster)}
        if not advertised:
            return [identity]
        fixed = [inp for inp in inputs if inp.kind == "extern"]
        partitions = input_partitions([g.view for g in groupable], advertised)
        by_view = {g.view: g for g in groupable}
        out: list[tuple[_Input, ...]] = []
        for blocks in partitions:
            leaf_inputs: list[_Input] = list(fixed)
            for block in blocks:
                if block in by_view:
                    leaf_inputs.append(by_view[block])
                else:
                    leaf_inputs.append(_Input(view=block, kind="reuse"))
            out.append(tuple(leaf_inputs))
        return out

    def _resolve_positions(
        self, cluster: Cluster, inp: _Input, query: Query
    ) -> tuple[int, ...]:
        """Concrete member positions of an input within ``cluster``."""
        if inp.kind == "extern":
            return inp.positions
        if inp.kind == "base":
            member = self.ads.base_member(cluster, next(iter(inp.view)))
            return (member,) if member is not None else ()
        if inp.kind == "reuse":
            sig = query.view_signature(inp.view)
            return tuple(sorted(self.ads.view_members(cluster, sig)))
        raise ValueError(f"unknown input kind {inp.kind!r}")  # pragma: no cover

    def _resolve_target(self, cluster: Cluster, out_target: int) -> int:
        """Represent the output target at this cluster's level."""
        if out_target in self.hierarchy.subtree(cluster):
            for member in cluster.members:
                if out_target in self.hierarchy.member_subtree(cluster, member):
                    return member
        return out_target

    def _pin_base_leaves(self, tree: PlanNode, placement: dict[PlanNode, int]) -> None:
        """Force base-stream leaves onto their true source nodes."""
        for leaf in tree.leaves():
            if leaf.is_base_stream:
                placement[leaf] = self.rates.source(leaf.stream)
