"""Minimal migration plans: diff two deployments of the same query.

A re-optimization produces a *candidate* deployment; blindly tearing the
old one down and redeploying would move (and re-build window state for)
every operator, even ones the new plan keeps exactly where they were.
:func:`diff_deployments` matches operators across the two deployments by
*view signature* -- the content identity the reuse machinery already
uses -- so an operator whose signature survives at the same node is
**kept** (no state transfer, no pause), one whose signature survives at
a different node is **moved** (its window state ships once), and only
genuinely new/dead signatures are added/removed.  Reused derived-stream
leaves are preserved the same way: a leaf reusing a view another query
provides never appears as a move, because the provider's operator is not
this query's to move.

Each move carries a state-size estimate: a sliding-window join holds
both input windows, so expected state is ``sum over inputs of
input_rate x window`` tuples, scaled by ``bytes_per_tuple``.  The
re-optimization policy prices the transfer as ``bytes x traversal
cost(old node, new node)`` and the migrator uses it for drain/transfer
timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import RateModel
from repro.query.deployment import Deployment
from repro.query.plan import Join
from repro.query.query import ViewSignature


@dataclass(frozen=True)
class OperatorMove:
    """One operator instance that must change nodes.

    Attributes:
        signature: The operator's view signature (content identity).
        old_node: Node the operator currently runs on.
        new_node: Node the candidate deployment places it on.
        state_tuples: Expected sliding-window state (tuples) to transfer.
        state_bytes: ``state_tuples x bytes_per_tuple``.
    """

    signature: ViewSignature
    old_node: int
    new_node: int
    state_tuples: float
    state_bytes: float

    @property
    def label(self) -> str:
        """Human-readable operator label."""
        return self.signature.label()

    def transfer_cost(self, costs: np.ndarray) -> float:
        """State-transfer cost: bytes x traversal cost old -> new."""
        return self.state_bytes * float(costs[self.old_node, self.new_node])


@dataclass
class MigrationDiff:
    """The minimal set of changes turning one deployment into another.

    Attributes:
        query: Name of the query being migrated.
        moved: Operators whose signature survives at a different node.
        kept: ``(signature, node)`` operators untouched by the migration.
        added: ``(signature, node)`` operators only the candidate has.
        removed: ``(signature, node)`` operators only the old plan has.
        reused_kept: Signatures of derived-stream leaves both plans
            reuse from other providers (never moved -- not ours).
    """

    query: str
    moved: list[OperatorMove] = field(default_factory=list)
    kept: list[tuple[ViewSignature, int]] = field(default_factory=list)
    added: list[tuple[ViewSignature, int]] = field(default_factory=list)
    removed: list[tuple[ViewSignature, int]] = field(default_factory=list)
    reused_kept: list[ViewSignature] = field(default_factory=list)

    @property
    def is_noop(self) -> bool:
        """Whether the candidate changes nothing physical."""
        return not (self.moved or self.added or self.removed)

    @property
    def total_state_bytes(self) -> float:
        """Window state shipped by all moves."""
        return sum(m.state_bytes for m in self.moved)

    def transfer_cost(self, costs: np.ndarray) -> float:
        """Total one-shot state-transfer cost of the migration."""
        return sum(m.transfer_cost(costs) for m in self.moved)


def _operator_map(deployment: Deployment) -> dict[ViewSignature, tuple[int, Join]]:
    """signature -> (node, join) for every join operator of a deployment.

    Signatures are unique within one query's plan: each join subtree
    covers a distinct source set.
    """
    return {
        deployment.signature(join.sources): (deployment.placement[join], join)
        for join in deployment.plan.joins()
    }


def _window_state_tuples(join: Join, deployment: Deployment, rates: RateModel) -> float:
    """Expected tuples resident in the join's sliding windows."""
    window = deployment.signature(join.sources).window
    return sum(
        rates.rate(deployment.signature(child.sources)) * window
        for child in (join.left, join.right)
    )


def diff_deployments(
    old: Deployment,
    new: Deployment,
    rates: RateModel,
    bytes_per_tuple: float = 1.0,
) -> MigrationDiff:
    """Compute the minimal migration from ``old`` to ``new``.

    Both deployments must belong to the same query.  State sizes are
    priced under the *current* rate model (fresh statistics), which is
    what the migration will actually ship.
    """
    if old.query.name != new.query.name:
        raise ValueError(
            f"cannot diff deployments of different queries "
            f"({old.query.name!r} vs {new.query.name!r})"
        )
    if bytes_per_tuple <= 0:
        raise ValueError("bytes_per_tuple must be positive")
    old_ops = _operator_map(old)
    new_ops = _operator_map(new)
    diff = MigrationDiff(query=old.query.name)
    for sig in sorted(set(old_ops) | set(new_ops), key=lambda s: s.label()):
        if sig in old_ops and sig in new_ops:
            old_node, old_join = old_ops[sig]
            new_node, _ = new_ops[sig]
            if old_node == new_node:
                diff.kept.append((sig, old_node))
            else:
                tuples = _window_state_tuples(old_join, old, rates)
                diff.moved.append(
                    OperatorMove(
                        signature=sig,
                        old_node=old_node,
                        new_node=new_node,
                        state_tuples=tuples,
                        state_bytes=tuples * bytes_per_tuple,
                    )
                )
        elif sig in old_ops:
            diff.removed.append((sig, old_ops[sig][0]))
        else:
            diff.added.append((sig, new_ops[sig][0]))
    old_reused = {old.signature(leaf.view) for leaf in old.reused_leaves()}
    new_reused = {new.signature(leaf.view) for leaf in new.reused_leaves()}
    diff.reused_kept = sorted(old_reused & new_reused, key=lambda s: s.label())
    return diff
