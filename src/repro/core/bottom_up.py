"""The Bottom-Up algorithm (paper Section 2.3).

A query is registered at its sink and climbs the sink's coordinator
chain.  At every cluster on the way up, the coordinator rewrites the
query against ``V_local`` -- the inputs whose providers live inside the
cluster's subtree -- plans and deploys all joins among local inputs
(exhaustive trees per join-connected component, with in-cluster derived
streams as reuse alternatives), advertises the results, and forwards the
rewritten remainder to the next level.  The climb stops as soon as every
input is local.

Two properties distinguish Bottom-Up from Top-Down and explain the
paper's measurements:

* **constrained ordering** -- only joins among already-local inputs are
  considered at each level, so globally better orders involving remote
  streams are never seen (the S_r pathology of Section 2.3.2);
* **no downward refinement** -- operators are placed directly on the
  candidate nodes the climbing coordinator knows about, with no
  recursive fragment refinement, which is why deployment is fast and
  placement coarser.

Candidate nodes at the i-th climb step are the union of the members of
every cluster visited so far on the sink's chain.  Each coordinator on
the chain *is* the coordinator of the cluster below it, so this is
exactly the membership knowledge the climbing protocol accumulates; it
keeps the per-level search inside one partition's budget (Theorem 4)
while giving large-``max_cs`` configurations real placement choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.cost import RateModel
from repro.core.reuse import input_partitions, substitute_views
from repro.core.search import TreeSearch
from repro.hierarchy.advertisements import AdvertisementIndex, ViewLookup
from repro.hierarchy.hierarchy import Cluster, Hierarchy
from repro.obs.explain import explained_plan
from repro.obs.tracer import NULL_SPAN, incr, span
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import Query


@dataclass(frozen=True)
class _Input:
    """A pending input of the climbing query.

    ``positions`` are exact physical nodes: the base stream's source,
    the node of a locally built view, or the advertisement nodes of a
    reusable derived stream.
    """

    view: frozenset[str]
    kind: str  # "base" | "built" | "reuse"
    positions: tuple[int, ...]


class BottomUpOptimizer:
    """Joint plan/placement optimization guided by the hierarchy, bottom-up.

    Cross-product join trees are skipped whenever a connected one
    exists (the paper's S9).

    Args:
        hierarchy: Virtual cluster hierarchy over the network.
        rates: Rate model over the base stream catalog.
        ads: Advertisement index (auto-created with base streams when
            omitted).
        reuse: Consider advertised derived views while planning.
        resources: Optional :class:`~repro.resources.ResourceManager`;
            same contract as on
            :class:`~repro.core.top_down.TopDownOptimizer` -- bounded /
            bi-criteria placement when constrained, byte-identical
            behavior when ``None``.
    """

    name = "bottom-up"

    def __init__(
        self,
        hierarchy: Hierarchy,
        rates: RateModel,
        ads: AdvertisementIndex | None = None,
        reuse: bool = True,
        resources=None,
    ) -> None:
        self.hierarchy = hierarchy
        self.rates = rates
        self.reuse = reuse
        self.resources = resources
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
        """Plan and place ``query`` by climbing from its sink.

        With ``explain=True`` the climb is traced (on a one-shot tracer
        if none is installed) and the returned deployment carries a
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
            "levels_climbed": 0,
            "climb_levels": [],
            "levels_visited": [],
            # Sequential climb trace for the runtime protocol simulator.
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

        remaining: list[_Input] = [
            _Input(
                view=frozenset((s,)),
                kind="base",
                positions=(self.rates.source(s),),
            )
            for s in query.sources
        ]
        built: dict[frozenset[str], tuple[PlanNode, dict[PlanNode, int]]] = {}
        constraint = (
            self.resources.constraint_for(query)
            if self.resources is not None
            else None
        )
        # Every source set of the query is priced once for the whole climb,
        # and its candidate sub-views are listed once.
        flow = self.rates.flow_pricer(query)
        reusable = self.ads.reusable_views(query)

        start_cluster = self.hierarchy.cluster_of(query.sink, 1)
        # Bottom-Up registration: the sink informs only its own leaf
        # cluster's coordinator (protocol-simulation metadata).
        stats["submit_chain"] = [start_cluster.coordinator]

        cluster: Cluster | None = start_cluster
        chain_candidates: set[int] = set()
        final: tuple[PlanNode, dict[PlanNode, int]] | None = None
        while cluster is not None:
            stats["levels_climbed"] += 1
            stats["climb_levels"].append(cluster.level)
            stats["levels_visited"].append(cluster.level)
            plans_before = stats["plans_examined"]
            trace_entry = {
                "level": cluster.level,
                "node": cluster.coordinator,
                "plans": 0,
                "parent": len(stats["task_trace"]) - 1,
                "deploy_nodes": [],
            }
            stats["task_trace"].append(trace_entry)
            chain_candidates |= set(cluster.members)
            candidates = sorted(chain_candidates)
            subtree = self.hierarchy.subtree(cluster)
            local = [
                inp for inp in remaining if all(p in subtree for p in inp.positions)
            ]
            with span(
                "climb", level=cluster.level, coordinator=cluster.coordinator,
                local_inputs=len(local), pending_inputs=len(remaining),
                candidates=len(candidates),
            ) as climb:
                if len(local) == len(remaining):
                    # Everything is local: plan the final join and stop.
                    final = self._plan_component(
                        cluster, candidates, remaining, query.sink, query, costs,
                        stats, built, flow, reusable, constraint=constraint,
                    )
                    trace_entry["plans"] = stats["plans_examined"] - plans_before
                    climb.tag(outcome="final")
                    break
                if len(local) >= 2:
                    remaining = self._deploy_local_views(
                        cluster, candidates, local, remaining, query, costs,
                        stats, built, flow, reusable, constraint=constraint,
                    )
                    climb.tag(outcome="partial-deploy")
                else:
                    climb.tag(outcome="forward")
                trace_entry["plans"] = stats["plans_examined"] - plans_before
            cluster = cluster.parent
        if final is None:  # pragma: no cover - root covers everything
            raise RuntimeError("query climbed past the hierarchy root")

        tree, placement = final
        stats["est_cost"] = stats.pop("_final_cost", float("nan"))
        return Deployment(query=query, plan=tree, placement=placement, stats=stats)

    # ------------------------------------------------------------------
    def _deploy_local_views(
        self,
        cluster: Cluster,
        candidates: list[int],
        local: list[_Input],
        remaining: list[_Input],
        query: Query,
        costs: np.ndarray,
        stats: dict,
        built: dict,
        flow: Callable[[PlanNode], float],
        reusable: ViewLookup,
        constraint=None,
    ) -> list[_Input]:
        """Join every join-connected group of local inputs; return the
        updated pending-input list."""
        components = self._components(local, query)
        incr("join_components", len(components))
        new_remaining = [inp for inp in remaining if inp not in local]
        for component in components:
            if len(component) == 1:
                new_remaining.append(component[0])
                continue
            tree, placement = self._plan_component(
                cluster, candidates, component, cluster.coordinator, query, costs,
                stats, built, flow, reusable, constraint=constraint,
            )
            root_node = placement[tree]
            view = tree.sources
            built[view] = (tree, placement)
            new_remaining.append(
                _Input(view=view, kind="built", positions=(root_node,))
            )
        return new_remaining

    def _plan_component(
        self,
        cluster: Cluster,
        candidates: list[int],
        inputs: list[_Input],
        target: int,
        query: Query,
        costs: np.ndarray,
        stats: dict,
        built: dict,
        flow: Callable[[PlanNode], float],
        reusable: ViewLookup,
        constraint=None,
    ) -> tuple[PlanNode, dict[PlanNode, int]]:
        """Exhaustively plan the join over ``inputs`` on ``candidates``.

        Returns the *concrete* (tree, placement) with built sub-views
        substituted in, ready to compose upward.
        """
        with span(
            "component", level=cluster.level, coordinator=cluster.coordinator,
            inputs=len(inputs),
        ) as component:
            if len(candidates) > self.hierarchy.max_cs:
                # Honor the per-partition search budget of Theorem 4: keep
                # the max_cs chain nodes most relevant to this component.
                positions = [p for inp in inputs for p in inp.positions]

                def relevance(node: int) -> float:
                    return float(
                        sum(costs[p, node] for p in positions) + costs[node, target]
                    )

                component.incr("candidates_dropped", len(candidates) - self.hierarchy.max_cs)
                candidates = sorted(candidates, key=relevance)[: self.hierarchy.max_cs]
            component.tag(candidates=len(candidates))
            search = TreeSearch(
                query, candidates, costs, flow, target,
                connected_only=True, stats=stats, span=component, constraint=constraint,
            )
            leaf_sets = self._candidate_leaf_sets(cluster, inputs, reusable)
            best = search.add_leaf_sets(
                [{inp.view: inp.positions for inp in ls} for ls in leaf_sets], what="component"
            )
            cost, tree, placement = best.cost, best.tree, best.placement
            if component is not NULL_SPAN:
                component.tag(chosen=tree.pretty(), est_cost=cost)
            reused = sum(1 for l in tree.leaves() if not l.is_base_stream)
            if reused:
                component.incr("reuse_leaves_chosen", reused)
        stats["_final_cost"] = cost
        # Record where this visit's *new* operators land (protocol sim),
        # before substitution merges in older ones.
        if stats["task_trace"]:
            entry = stats["task_trace"][-1]
            entry["deploy_nodes"] = sorted(
                set(entry["deploy_nodes"]) | {placement[j] for j in tree.joins()}
            )
        replacements = {view: built[view] for view in built}
        tree, placement = substitute_views(tree, placement, replacements)
        return tree, placement

    def _candidate_leaf_sets(
        self,
        cluster: Cluster,
        inputs: list[_Input],
        reusable: ViewLookup,
    ) -> list[tuple[_Input, ...]]:
        """The inputs as-is, plus reuse groupings advertised in-cluster."""
        identity = tuple(inputs)
        if not self.reuse or len(inputs) < 2:
            return [identity]
        advertised = {
            sig.sources: tuple(sorted(nodes)) for sig, nodes in reusable(cluster).items()
        }
        if not advertised:
            return [identity]
        partitions = input_partitions([inp.view for inp in inputs], advertised)
        by_view = {inp.view: inp for inp in inputs}
        out: list[tuple[_Input, ...]] = []
        for blocks in partitions:
            leaf_inputs: list[_Input] = []
            for block in blocks:
                if block in by_view:
                    leaf_inputs.append(by_view[block])
                else:
                    leaf_inputs.append(
                        _Input(view=block, kind="reuse", positions=advertised[block])
                    )
            out.append(tuple(leaf_inputs))
        return out

    def _components(self, inputs: list[_Input], query: Query) -> list[list[_Input]]:
        """Join-connected components of ``inputs`` under the query graph."""
        n = len(inputs)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                vi, vj = inputs[i].view, inputs[j].view
                crossing = any(
                    (p.left in vi and p.right in vj) or (p.left in vj and p.right in vi)
                    for p in query.predicates
                )
                if crossing:
                    parent[find(i)] = find(j)
        groups: dict[int, list[_Input]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(inputs[i])
        return list(groups.values())
