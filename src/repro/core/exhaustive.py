"""Optimal joint plan + placement search.

The paper's "optimal deployment computed using DP" reference point:
:class:`OptimalPlanner`, a subset dynamic program over (source-subset,
node) states, vectorized over nodes with NumPy.  Exact for the additive
communication-cost metric, with optional reuse seeding from a
:class:`DeploymentState`'s advertised views.  The tests cross-validate
it against literal enumeration of every join tree and operator
assignment on tiny instances.
"""

from __future__ import annotations

from itertools import combinations
import numpy as np

from repro.core.bounds import exhaustive_space
from repro.core.cost import RateModel
from repro.network.graph import Network
from repro.obs.explain import explained_plan
from repro.obs.tracer import incr, op_sink, span, tag
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import Query


def _connected_subsets(query: Query) -> set[frozenset[str]]:
    """All join-connected subsets of the query's sources (incl. singletons)."""
    sources = list(query.sources)
    out: set[frozenset[str]] = set()
    for size in range(1, len(sources) + 1):
        for combo in combinations(sources, size):
            subset = frozenset(combo)
            if query.allow_cross_products or query.is_join_connected(subset):
                out.add(subset)
    return out


class OptimalPlanner:
    """Optimal joint plan/placement via subset DP over the whole network.

    Args:
        network: The physical network.
        rates: Rate model over the base stream catalog.
        reuse: Whether to exploit derived views advertised by the
            deployment state passed to :meth:`plan`.
    """

    name = "optimal"

    def __init__(
        self,
        network: Network,
        rates: RateModel,
        reuse: bool = True,
        containment: bool = False,
    ) -> None:
        self.network = network
        self.rates = rates
        self.reuse = reuse
        # Containment reuse (paper future work): also reuse deployed
        # views with a *subset* of the needed filters, shipping at the
        # provider's larger rate (see repro.core.containment).
        self.containment = containment

    def plan(
        self,
        query: Query,
        state: DeploymentState | None = None,
        explain: bool = False,
    ) -> Deployment:
        """Compute the minimum-marginal-cost deployment for ``query``.

        When ``state`` is given and reuse is enabled, already-deployed
        views with matching signatures are free to reuse at their nodes.
        With ``explain=True`` the DP is traced (on a one-shot tracer if
        none is installed) and the deployment carries a
        :class:`~repro.obs.explain.PlanExplanation`.
        """
        return explained_plan(self, query, state, explain, self.network)

    def _plan(self, query: Query, state: DeploymentState | None) -> Deployment:
        costs = self.network.cost_matrix()
        n = costs.shape[0]
        sources = frozenset(query.sources)
        k = len(sources)
        stats = {
            "plans_examined": exhaustive_space(k, n),
            "algorithm": self.name,
        }

        if k == 1:
            leaf = Leaf(sources)
            return Deployment(
                query=query,
                plan=leaf,
                placement={leaf: self.rates.source(next(iter(sources)))},
                stats=stats,
            )

        # providers[S]: node -> shipping rate of the reusable view there.
        providers: dict[frozenset[str], dict[int, float]] = {}
        if self.reuse and state is not None:
            if self.containment:
                from repro.core.containment import (
                    best_provider_per_node,
                    containment_candidates,
                )

                from itertools import combinations

                for size in range(2, k + 1):
                    for combo in combinations(sorted(sources), size):
                        subset = frozenset(combo)
                        cands = containment_candidates(query, subset, state, self.rates)
                        if cands:
                            providers[subset] = {
                                node: cand.ship_rate
                                for node, cand in best_provider_per_node(cands).items()
                            }
            else:
                inflation = self.rates.reuse_rate_inflation
                for sig, nodes in state.advertised_views().items():
                    if sig.sources <= sources and len(sig.sources) > 1:
                        if sig == query.view_signature(sig.sources):
                            rate = self.rates.rate(sig) * inflation
                            providers[sig.sources] = {n: rate for n in nodes}

        incr("reuse_provider_views", len(providers))
        incr(
            "reuse_provider_nodes", sum(len(nodes) for nodes in providers.values())
        )
        subsets = _connected_subsets(query)
        order = sorted(subsets, key=len)

        # avail[S][v]: min cost to make S's output available at v.
        avail: dict[frozenset[str], np.ndarray] = {}
        # avail_arg[S][v]: *computing* node that achieves avail[S][v]
        # when computing wins.
        avail_arg: dict[frozenset[str], np.ndarray] = {}
        # reuse_from[S][v]: provider node when reusing beats computing
        # for a consumer at v (-1 otherwise).
        reuse_from: dict[frozenset[str], np.ndarray] = {}
        # split_of[S][w]: index into splits[S] for computing S at w.
        split_of: dict[frozenset[str], np.ndarray] = {}
        splits: dict[frozenset[str], list[tuple[frozenset[str], frozenset[str]]]] = {}

        for subset in order:
            rate = self.rates.rate_for(query, subset)
            if len(subset) == 1:
                src = self.rates.source(next(iter(subset)))
                avail[subset] = rate * costs[src, :]
                avail_arg[subset] = np.full(n, src, dtype=np.intp)
                reuse_from[subset] = np.full(n, -1, dtype=np.intp)
                continue
            subset_splits: list[tuple[frozenset[str], frozenset[str]]] = []
            produce = np.full(n, np.inf)
            choice = np.full(n, -2, dtype=np.intp)
            members = sorted(subset)
            anchor = members[0]
            rest = members[1:]
            for mask in range(1 << len(rest)):
                left = frozenset([anchor] + [rest[i] for i in range(len(rest)) if mask >> i & 1])
                right = subset - left
                if not right:
                    continue
                if left not in avail or right not in avail:
                    continue
                cand = avail[left] + avail[right]
                better = cand < produce
                produce[better] = cand[better]
                choice[better] = len(subset_splits)
                subset_splits.append((left, right))
            splits[subset] = subset_splits
            split_of[subset] = choice
            incr("dp_subsets")
            incr("splits_considered", len(subset_splits))
            ops = op_sink()
            if ops is not None:
                ops.count("dp_subsets")
                # Split scan over n nodes plus the n x n shipping scan.
                ops.count("cost_evaluations", (len(subset_splits) + n) * n)

            # Compute option: produce somewhere, ship at the view's rate.
            arrival = produce[:, None] + rate * costs
            best = arrival.argmin(axis=0)
            best_avail = arrival[best, np.arange(n)]
            best_reuse = np.full(n, -1, dtype=np.intp)
            # Reuse option: ship from a provider node at the provider's
            # own (possibly larger, under containment) rate.
            subset_providers = providers.get(subset)
            if subset_providers:
                pnodes = np.fromiter(subset_providers, dtype=np.intp)
                prates = np.asarray([subset_providers[p] for p in pnodes])
                reuse_arrival = prates[:, None] * costs[pnodes, :]
                ridx = reuse_arrival.argmin(axis=0)
                rbest = reuse_arrival[ridx, np.arange(n)]
                use = rbest < best_avail
                incr("reuse_shipping_wins", int(np.count_nonzero(use)))
                best_avail = np.where(use, rbest, best_avail)
                best_reuse = np.where(use, pnodes[ridx], best_reuse)
            avail[subset] = best_avail
            avail_arg[subset] = best
            reuse_from[subset] = best_reuse

        if sources not in avail or not np.isfinite(avail[sources]).any():
            raise ValueError(
                f"query {query.name!r} admits no connected plan; "
                "check its predicate graph"
            )

        placement: dict[PlanNode, int] = {}

        def acquire(subset: frozenset[str], consumer: int) -> PlanNode:
            """Best way to make ``subset``'s view available at ``consumer``."""
            provider = int(reuse_from[subset][consumer])
            if provider >= 0:
                leaf = Leaf(subset)
                placement[leaf] = provider
                return leaf
            return build(subset, int(avail_arg[subset][consumer]))

        def build(subset: frozenset[str], node: int) -> PlanNode:
            """Compute ``subset``'s view with an operator at ``node``."""
            if len(subset) == 1:
                leaf = Leaf(subset)
                placement[leaf] = self.rates.source(next(iter(subset)))
                return leaf
            sel = int(split_of[subset][node])
            if sel < 0:
                raise RuntimeError(f"no production choice for {sorted(subset)} at {node}")
            left, right = splits[subset][sel]
            join = Join(acquire(left, node), acquire(right, node))
            placement[join] = node
            return join

        with span("extract") as espan:
            plan = acquire(sources, query.sink)
            espan.incr("operators", plan.num_joins)
            espan.incr(
                "reuse_leaves", sum(1 for l in plan.leaves() if not l.is_base_stream)
            )
        stats["cost_estimate"] = float(avail[sources][query.sink])
        tag(est_cost=stats["cost_estimate"])
        return Deployment(query=query, plan=plan, placement=placement, stats=stats)
