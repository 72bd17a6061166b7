"""Operator-reuse planning support shared by the hierarchical optimizers.

Reuse enters planning as *leaf alternatives*: wherever a coordinator
plans a join over a set of input views, any advertised derived view
whose sources are exactly the union of some of those inputs (with a
matching signature) can replace computing that union.  The helpers here
enumerate those groupings and resolve reused leaves to concrete
advertisement nodes in the final deployment.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import Query, ViewSignature


def input_partitions(
    input_views: Sequence[frozenset[str]],
    reusable_unions: Iterable[frozenset[str]],
) -> list[list[frozenset[str]]]:
    """Partitions of ``input_views`` into single inputs and reusable unions.

    Each partition is a candidate leaf set: a block is either one input
    view, or the union of several input views that matches a view in
    ``reusable_unions`` (an advertised derived stream).  The identity
    partition (every input separate) comes first.

    Input views must be pairwise disjoint.  Because they are, a
    reusable union determines exactly which inputs it covers, so
    enumeration is a simple first-element recursion.  Unions are tried
    in the order of the input positions they cover, so the partitions
    come out in one order whatever order ``reusable_unions`` iterates in
    (leaf-set order breaks cost ties in the task search).
    """
    views = list(input_views)
    union_all: set[str] = set()
    for v in views:
        if union_all & v:
            raise ValueError("input views must be pairwise disjoint")
        union_all |= v

    # For each reusable union, the exact set of inputs it would absorb.
    absorbable: list[tuple[frozenset[str], frozenset[int]]] = []
    for target in reusable_unions:
        covered = [i for i, v in enumerate(views) if v <= target]
        if len(covered) >= 2 and frozenset().union(*(views[i] for i in covered)) == target:
            absorbable.append((target, frozenset(covered)))
    absorbable.sort(key=lambda item: sorted(item[1]))

    results: list[list[frozenset[str]]] = []

    def recurse(remaining: frozenset[int], acc: list[frozenset[str]]) -> None:
        if not remaining:
            results.append(list(acc))
            return
        first = min(remaining)
        acc.append(views[first])
        recurse(remaining - {first}, acc)
        acc.pop()
        for target, covered in absorbable:
            if first in covered and covered <= remaining:
                acc.append(target)
                recurse(remaining - covered, acc)
                acc.pop()

    recurse(frozenset(range(len(views))), [])
    return results


def resolve_reuse_leaves(
    query: Query,
    plan: PlanNode,
    placement: dict[PlanNode, int],
    view_nodes: Mapping[ViewSignature, set[int]],
    costs: np.ndarray,
    tracer=None,
) -> None:
    """Pin every reused-view leaf to its cheapest advertisement node.

    Hierarchical planning resolves reuse down to a *member* (a cluster
    representative); the realized deployment must reference an actual
    operator node.  For each multi-stream leaf, picks the advertised
    node minimizing shipping cost to the leaf's consumer (the parent
    join's node, or the query sink for a fully-reused plan).  Mutates
    ``placement`` in place.

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`) gets one
    ``resolve_reuse`` span counting the pinned leaves and the provider
    nodes considered.
    """
    from repro.obs.tracer import NULL_TRACER

    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.span("resolve_reuse") as span:
        consumers: dict[PlanNode, int] = {plan: query.sink}
        for join in plan.joins():
            consumers[join.left] = placement[join]
            consumers[join.right] = placement[join]
        for leaf in plan.leaves():
            if leaf.is_base_stream:
                continue
            sig = query.view_signature(leaf.view)
            nodes = view_nodes.get(sig)
            if not nodes:
                raise ValueError(
                    f"plan for {query.name!r} reuses {sig.label()} but it is not advertised"
                )
            consumer = consumers[leaf]
            # The lowest node wins a tie, not the set's iteration order.
            placement[leaf] = min(nodes, key=lambda n: (costs[n, consumer], n))
            span.incr("reuse_leaves_pinned")
            span.incr("provider_nodes_considered", len(nodes))


def substitute_views(
    tree: PlanNode,
    placement: Mapping[PlanNode, int],
    replacements: Mapping[frozenset[str], tuple[PlanNode, Mapping[PlanNode, int]]],
) -> tuple[PlanNode, dict[PlanNode, int]]:
    """Replace placeholder leaves with producing sub-plans.

    Hierarchical planning composes a query's final plan from fragment
    plans: ``replacements`` maps a view (the output of some fragment) to
    that fragment's (tree, placement).  Every leaf of ``tree`` whose
    view appears in ``replacements`` is substituted; join nodes are
    rebuilt (their identity changes once children change) and the merged
    placement map is returned.
    """
    new_placement: dict[PlanNode, int] = {}

    def rebuild(node: PlanNode) -> PlanNode:
        if isinstance(node, Leaf):
            if node.view in replacements:
                sub_tree, sub_placement = replacements[node.view]
                new_placement.update(sub_placement)
                return sub_tree
            new_placement[node] = placement[node]
            return node
        assert isinstance(node, Join)
        left = rebuild(node.left)
        right = rebuild(node.right)
        new = Join(left, right)
        new_placement[new] = placement[node]
        return new

    new_tree = rebuild(tree)
    return new_tree, new_placement
