"""Multi-query consolidation (paper Sections 2.2 / 2.3 extensions).

Both hierarchical algorithms "can be extended to perform multi-query
optimization by constructing a consolidated query".  We implement the
practical form of that idea: given a *batch* of queries, identify the
view signatures shared by two or more of them, materialize the most
valuable shared views first, then plan each query with reuse enabled so
every query snaps onto the shared operators.  Experiments compare this
against naive one-at-a-time deployment (which still reuses, but only
sees views that happen to exist already).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.optimizer import Optimizer, deploy_query
from repro.query.deployment import Deployment, DeploymentState
from repro.query.query import Query, ViewSignature


@dataclass(frozen=True)
class SharedView:
    """A view signature shared by several queries in a batch.

    Attributes:
        signature: The common view.
        queries: Names of the queries that could consume it.
        benefit: Crude sharing score: (consumers - 1) * view size; used
            only to order materialization.
    """

    signature: ViewSignature
    queries: tuple[str, ...]
    benefit: float


def shared_views(queries: Sequence[Query]) -> list[SharedView]:
    """Shared view signatures across a query batch, best-benefit first.

    A subset of streams is shared between two queries when both queries
    restrict to the *same* signature on it (same predicates, same
    filters) and the subset is join-connected in each.
    """
    candidates: dict[ViewSignature, set[str]] = {}
    for i, qa in enumerate(queries):
        for qb in queries[i + 1 :]:
            common = frozenset(qa.sources) & frozenset(qb.sources)
            # Consider every connected sub-view of the intersection.
            for subset in _connected_subsets(qa, common):
                sig_a = qa.view_signature(subset)
                if not qb.is_join_connected(subset):
                    continue
                if sig_a != qb.view_signature(subset):
                    continue
                candidates.setdefault(sig_a, set()).update((qa.name, qb.name))
    out = [
        SharedView(
            signature=sig,
            queries=tuple(sorted(names)),
            benefit=(len(names) - 1) * len(sig.sources),
        )
        for sig, names in candidates.items()
    ]
    out.sort(key=lambda sv: (-sv.benefit, -len(sv.signature.sources), sv.signature.label()))
    return out


def _connected_subsets(query: Query, pool: frozenset[str]):
    """Join-connected subsets of ``pool`` of two or more streams."""
    from itertools import combinations

    members = sorted(pool)
    for size in range(2, len(members) + 1):
        for combo in combinations(members, size):
            subset = frozenset(combo)
            if query.is_join_connected(subset):
                yield subset


def consolidate(
    queries: Sequence[Query],
    optimizer: Optimizer,
    state: DeploymentState,
    max_views: int | None = 8,
    validate: bool = True,
) -> list[Deployment]:
    """Deploy a batch with beneficial shared views materialized first.

    Candidate shared views are considered best-benefit first; with
    ``validate`` (the default) each candidate is kept only if
    materializing it actually lowers the batch's total cost (evaluated
    on a cloned state), so consolidation never loses to naive
    one-at-a-time deployment.  Without validation every candidate is
    materialized unconditionally -- cheaper to compute, but upfront
    materialization can backfire when consumers sit far apart (the
    paper's "we may decide not to reuse" caveat); the ablation bench
    demonstrates both modes.

    Args:
        queries: The batch (deployed in the given order).
        optimizer: Planner used both for shared views and the queries.
        state: Global deployment state (mutated).
        max_views: Cap on how many shared views to consider.
        validate: Greedily keep only cost-reducing materializations.

    Returns:
        The deployments of the *queries* (shared-view deployments are
        internal and reachable through ``state``).
    """
    views = shared_views(list(queries))
    if max_views is not None:
        views = views[:max_views]
    by_name = {q.name: q for q in queries}

    def pseudo_for(shared: SharedView) -> Query:
        owner = by_name[shared.queries[0]]
        return Query(
            name=f"__shared__{shared.signature.label()}",
            sources=sorted(shared.signature.sources),
            sink=owner.sink,
            predicates=shared.signature.predicates,
            filters=shared.signature.filters,
        )

    def batch_total(materialized: list[Query]) -> float:
        shadow = state.clone()
        for pseudo in materialized:
            shadow.apply(optimizer.plan(pseudo, shadow))
        for query in queries:
            shadow.apply(optimizer.plan(query, shadow))
        return shadow.total_cost()

    chosen: list[Query] = []
    if validate:
        best = batch_total(chosen)
        for shared in views:
            if state.has_view(shared.signature):
                continue
            candidate = chosen + [pseudo_for(shared)]
            total = batch_total(candidate)
            if total < best - 1e-9:
                chosen = candidate
                best = total
    else:
        chosen = [
            pseudo_for(shared)
            for shared in views
            if not state.has_view(shared.signature)
        ]

    for pseudo in chosen:
        deploy_query(optimizer, pseudo, state)
    return [deploy_query(optimizer, q, state).deployment for q in queries]
