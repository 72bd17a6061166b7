"""Deployments and the global deployment state.

A :class:`Deployment` is one query's chosen plan plus the operator ->
physical-node assignment.  The :class:`DeploymentState` owns every
deployed operator instance and every data flow in the system and
computes the paper's cost metric:

    total communication cost per unit time
        = sum over flows of  (flow rate) x (traversal cost of its path)

Accounting follows the IFLOW prototype's physical reality: flows are
per-subscription, so two queries shipping the same stream to the same
node pay twice -- *unless* a query explicitly reuses a deployed operator
(a multi-stream leaf in its plan), in which case the view's production
flows were paid once by the query that created it and the reusing query
pays only the shipping of the derived stream to its consumer.  This is
exactly what separates the paper's "with reuse" and "without reuse"
curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from repro.errors import DeploymentError, UnknownQueryError
from repro.obs.tracer import op_sink
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import Query, ViewSignature


# A producer is either a base stream at its source node or a deployed
# view (operator output) at the operator's node.
ProducerKey = tuple  # ("base", stream_name, node) | ("view", ViewSignature, node)

OperatorKey = tuple[ViewSignature, int]  # (signature, node)

#: Entries each change log keeps.  The key log keeps the signatures of
#: retired operators alive, so it is small; a reader further behind than
#: this reconciles in full.
_FEED_LIMIT = 256


class _Log:
    """Append-only entries from absolute position ``base``: past
    :data:`_FEED_LIMIT` entries, the older half is dropped."""

    def __init__(self) -> None:
        self.entries, self.base = [], 0

    def append(self, entry) -> None:
        self.entries.append(entry)
        if len(self.entries) > _FEED_LIMIT:
            del self.entries[: _FEED_LIMIT // 2]
            self.base += _FEED_LIMIT // 2

    def since(self, position: int) -> list | None:
        start = position - self.base
        return self.entries[start:] if start >= 0 else None


def _is_base(node: PlanNode) -> bool:
    return isinstance(node, Leaf) and node.is_base_stream


@dataclass(frozen=True)
class FlowEdge:
    """One materialized data flow (a subscription).

    Attributes:
        query: Name of the query that pays for the flow.
        producer: Producer identity (``("base", name, node)`` or
            ``("view", signature, node)``).
        dest: Destination node id.
        rate: Data rate of the flow (units/time).
    """

    query: str
    producer: ProducerKey
    dest: int
    rate: float

    @property
    def src(self) -> int:
        """Source node of the flow."""
        return self.producer[2]

    def cost(self, costs: np.ndarray) -> float:
        """Communication cost/unit time given an all-pairs cost matrix."""
        return float(self.rate * costs[self.src, self.dest])


@dataclass
class Deployment:
    """One query's plan and operator placement.

    Attributes:
        query: The deployed query.
        plan: The chosen join tree.  Leaves covering multiple streams are
            reused derived views.
        placement: Node assignment for every subtree root: join operators
            map to the node that executes them, base-stream leaves to the
            stream's source node, and reused-view leaves to the node of
            the reused operator.
        stats: Free-form metadata recorded by the optimizer that produced
            the deployment (plans examined, levels traversed, ...).
        explanation: A :class:`repro.obs.explain.PlanExplanation` when
            the optimizer was asked to explain itself (``explain=True``
            on its ``plan`` entry point); ``None`` otherwise.
    """

    query: Query
    plan: PlanNode
    placement: dict[PlanNode, int]
    stats: dict = field(default_factory=dict)
    explanation: object | None = None
    # Derived, filled by :meth:`signature`: never captured, compared or shown.
    _signatures: dict[frozenset[str], ViewSignature] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for node in self.plan.subtrees():
            if node not in self.placement:
                raise DeploymentError(
                    f"deployment for {self.query.name!r} is missing a placement "
                    f"for subtree {node.pretty()}"
                )
        if self.plan.sources != frozenset(self.query.sources):
            raise DeploymentError(
                f"plan covers {sorted(self.plan.sources)} but query "
                f"{self.query.name!r} needs {sorted(self.query.sources)}"
            )

    def signature(self, view: frozenset[str]) -> ViewSignature:
        """The query's signature over ``view``, derived once per deployment.

        Pass a plan node's own ``sources`` (or a leaf's ``view``): the
        signature is built from the first set it is asked with.
        """
        sig = self._signatures.get(view)
        if sig is None:
            sig = self._signatures[view] = self.query.view_signature(view)
        return sig

    @property
    def operator_nodes(self) -> dict[PlanNode, int]:
        """Placements of join operators only."""
        return {j: self.placement[j] for j in self.plan.joins()}

    def reused_leaves(self) -> list[Leaf]:
        """Leaves that reuse an existing derived view."""
        return [leaf for leaf in self.plan.leaves() if not leaf.is_base_stream]


@dataclass(slots=True)
class _OperatorRecord:
    """Book-keeping for one deployed operator instance.

    ``origin`` is the ``(query, left sources, right sources)`` of the
    first join installed under this key.  It is written once, at install
    time, so what an operator that outlives its installer computes (and
    therefore what it loads its node with) never depends on who asked
    when; records created for external or filter-only views have none.
    ``serial`` numbers records in install order.
    """

    signature: ViewSignature
    node: int
    rate: float
    queries: set[str] = field(default_factory=set)
    origin: tuple[Query, frozenset[str], frozenset[str]] | None = None
    serial: int = 0


class DeploymentState:
    """All deployed operators and flows, with reuse-aware cost accounting.

    Args:
        costs: All-pairs traversal-cost matrix of the physical network.
        rate_of: ``rate_of(signature) -> float`` giving the output rate
            of a view (normally :meth:`repro.core.cost.RateModel.rate`).
        source_fn: ``source_fn(stream_name) -> node`` giving each base
            stream's source node.
        reuse_inflation: Multiplier (>= 1) on the shipping rate of reused
            views (extra projected columns; the paper's caveat).  Should
            match the rate model's ``reuse_rate_inflation``.
    """

    def __init__(
        self,
        costs: np.ndarray,
        rate_of: Callable[[ViewSignature], float],
        source_fn: Callable[[str], int],
        reuse_inflation: float = 1.0,
    ) -> None:
        if reuse_inflation < 1.0:
            raise ValueError("reuse_inflation must be >= 1")
        self._costs = costs
        self._rate_of = rate_of
        self._source_fn = source_fn
        self._reuse_inflation = reuse_inflation
        self._operators: dict[OperatorKey, _OperatorRecord] = {}
        self._views: dict[ViewSignature, int] = {}  # live operators per signature
        # Flows and their prices, per paying query in application order.
        # A flow is priced once, when it is created or the matrix swapped.
        self._flows: dict[str, list[FlowEdge]] = {}
        self._flow_costs: dict[str, list[float]] = {}
        self._deployments: dict[str, Deployment] = {}
        # Per live query, the records ``apply`` added its name to, in
        # order: ``undeploy`` releases exactly these.
        self._claims: dict[str, list[OperatorKey]] = {}
        #: Monotone change counter, bumped by every mutator: readers that
        #: keep anything derived from this state compare it to skip work.
        self.revision = 0
        self._serial = 0
        # The change feeds: every operator key created or dropped and every
        # query name applied or undeployed, oldest first.  ``_feed_id``
        # names both; a clone has its own and ``restore`` starts new ones.
        self._keys, self._names = _Log(), _Log()
        self._feed_id = object()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def deployments(self) -> list[Deployment]:
        """All live deployments, in application order."""
        return list(self._deployments.values())

    def deployment(self, name: str) -> Deployment | None:
        """The live deployment of query ``name``, if any."""
        return self._deployments.get(name)

    @property
    def num_deployments(self) -> int:
        """Number of live deployments."""
        return len(self._deployments)

    @property
    def num_operators(self) -> int:
        """Number of distinct live operator instances."""
        return len(self._operators)

    def flows(self) -> list[FlowEdge]:
        """All live flows (one entry per paying query per edge)."""
        return list(chain.from_iterable(self._flows.values()))

    def operators(self) -> list[tuple[ViewSignature, int]]:
        """(signature, node) of every live operator instance."""
        return list(self._operators)

    def operator_records(self) -> list[_OperatorRecord]:
        """Every live operator record, in install order (read-only)."""
        return list(self._operators.values())

    def operator_record(self, key: OperatorKey) -> _OperatorRecord | None:
        """The live record at ``(signature, node)``, if any (read-only)."""
        return self._operators.get(key)

    def advertised_views(self) -> dict[ViewSignature, set[int]]:
        """Derived-stream advertisements: signature -> nodes offering it."""
        out: dict[ViewSignature, set[int]] = {}
        for (sig, node) in self._operators:
            out.setdefault(sig, set()).add(node)
        return out

    def has_view(self, signature: ViewSignature, node: int | None = None) -> bool:
        """Whether a view is deployed (optionally: at a specific node)."""
        if node is not None:
            return (signature, node) in self._operators
        return signature in self._views

    def queries_using(self, signature: ViewSignature, node: int) -> set[str]:
        """Names of queries consuming the operator instance."""
        rec = self._operators.get((signature, node))
        return set(rec.queries) if rec else set()

    def total_cost(self) -> float:
        """Current total communication cost per unit time.

        A fresh sum over every live flow's price in :meth:`flows` order,
        never a running total: totals are compared for identity.
        """
        ops = op_sink()
        if ops is not None:  # the sum is work of its own: only when counted
            ops.count("flow_prices_summed", sum(map(len, self._flow_costs.values())))
        return sum(chain.from_iterable(self._flow_costs.values()))

    def query_cost(self, name: str) -> float:
        """Communication cost attributed to one query's subscriptions."""
        return sum(self._flow_costs.get(name, ()))

    # ------------------------------------------------------------------
    # Change feeds
    # ------------------------------------------------------------------
    def feed_cursor(self) -> tuple[object, int, int]:
        """The feeds' position after the latest change.

        Keep it and hand it to :meth:`changes_since` or
        :meth:`names_since` later; the value is opaque and only
        meaningful to the state that issued it.
        """
        return (self._feed_id, self._keys.base + len(self._keys.entries),
                self._names.base + len(self._names.entries))

    def changes_since(self, cursor: tuple | None) -> list[OperatorKey] | None:
        """Every ``(signature, node)`` created or dropped since ``cursor``.

        Keys come oldest change first, repeat when touched repeatedly
        and say nothing about the outcome: ask :meth:`has_view`.  Returns
        ``None`` when the feed cannot answer -- the cursor is from
        another state (a clone included), predates a :meth:`restore`, or
        is further behind than the feed keeps -- and the reader must
        look at the whole operator set instead.
        """
        if cursor is None or cursor[0] is not self._feed_id:
            return None
        return self._keys.since(cursor[1])

    def names_since(self, cursor: tuple | None) -> list[str] | None:
        """Every query name applied or undeployed since ``cursor``, oldest
        first: :meth:`changes_since` for :meth:`deployments`, with the
        same ``None`` answer."""
        if cursor is None or cursor[0] is not self._feed_id:
            return None
        return self._names.since(cursor[2])

    def operator_serial(self, signature: ViewSignature, node: int) -> int:
        """Install serial of a live operator; :meth:`operators` lists
        them in increasing serial order."""
        return self._operators[(signature, node)].serial

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, deployment: Deployment) -> float:
        """Install a deployment; return the cost it added.

        Creates operator instances for every join of the plan, charges
        their input flows to this query, and validates that every reused
        leaf references an operator some earlier query deployed.  Every
        record the query's name is added to is claimed, in that order; a
        refused deployment releases what it claimed before raising.
        """
        query = deployment.query
        name = query.name
        if name in self._deployments:
            raise DeploymentError(f"query {name!r} is already deployed")
        self.revision += 1
        placement = deployment.placement
        claims: list[OperatorKey] = []
        adopted: list[_OperatorRecord] = []
        added: list[FlowEdge] = []
        try:
            for subtree in deployment.plan.subtrees():
                node = placement[subtree]
                if isinstance(subtree, Leaf):
                    self._check_leaf(deployment, subtree, node, claims)
                    continue
                rec = self._claim(deployment.signature(subtree.sources), node, name, claims)
                if rec.origin is None:
                    rec.origin = (query, subtree.left.sources, subtree.right.sources)
                    adopted.append(rec)
                for child in (subtree.left, subtree.right):
                    src = placement[child]
                    if src != node:
                        added.append(self._flow(deployment, child, src, node, claims))
            root = deployment.plan
            if placement[root] != query.sink:
                added.append(self._flow(deployment, root, placement[root], query.sink, claims))
        except BaseException:
            for rec in adopted:
                rec.origin = None
            self._release(name, claims)
            raise
        prices = [f.cost(self._costs) for f in added]
        self._flows[name] = added
        self._flow_costs[name] = prices
        self._deployments[name] = deployment
        self._claims[name] = claims
        self._names.append(name)
        return sum(prices)

    def undeploy(self, name: str) -> float:
        """Remove a query's deployment; return the cost reclaimed.

        Operator instances this query created stay alive while other
        queries reuse them; instances with no consumers left are dropped
        (their advertisements disappear with them).

        Caveat: the input subscriptions feeding an operator are billed to
        the query that created it, so undeploying that query reclaims
        them even if another query still reuses the view.  Callers
        migrating queries must leave such a provider in place:
        :meth:`ReoptPolicy.pinned_by_reuse
        <repro.adaptive.policy.ReoptPolicy.pinned_by_reuse>` pins it.
        """
        if name not in self._deployments:
            raise UnknownQueryError(f"query {name!r} is not deployed")
        self.revision += 1
        del self._deployments[name]
        self._names.append(name)
        self._flows.pop(name, None)
        reclaimed = 0.0
        for price in self._flow_costs.pop(name, ()):
            reclaimed += price
        self._release(name, self._claims.pop(name))
        return reclaimed

    def cost_of(self, deployment: Deployment) -> float:
        """Cost :meth:`apply` would add, without mutating state."""
        shadow = self.clone()
        return shadow.apply(deployment)

    def clone(self) -> "DeploymentState":
        """Independent copy sharing the immutable cost matrix."""
        other = DeploymentState(
            self._costs, self._rate_of, self._source_fn, self._reuse_inflation
        )
        other._operators = {
            key: _OperatorRecord(
                rec.signature, rec.node, rec.rate, set(rec.queries), rec.origin, rec.serial
            )
            for key, rec in self._operators.items()
        }
        other._views = dict(self._views)
        other._serial = self._serial
        other._flows = {name: list(flows) for name, flows in self._flows.items()}
        other._flow_costs = {name: list(prices) for name, prices in self._flow_costs.items()}
        other._deployments = dict(self._deployments)
        other._claims = dict(self._claims)  # a claim list never changes
        return other

    def restore(
        self,
        deployments: Iterable[Deployment],
        operators: Iterable[tuple],
        flows: Iterable[FlowEdge],
    ) -> None:
        """Replace the whole state with a captured one (crash recovery).

        Args:
            deployments: Live deployments, in application order.
            operators: ``(signature, node, rate, queries, origin)`` per
                operator record, in install order.
            flows: Live flows, in creation order (each query's together).
        """
        self.revision += 1
        self._deployments = {d.query.name: d for d in deployments}
        self._operators = {}
        self._views = {}
        for sig, node, rate, queries, origin in operators:
            self._install(sig, node, rate, origin).queries.update(queries)
        # A query holds at most one record per source set: its plan nodes'.
        held = {
            (name, key[0].sources, key[1]): key
            for key, rec in self._operators.items()
            for name in rec.queries
        }
        self._claims = {
            name: [held[k] for k in self._claim_order(d) if k in held]
            for name, d in self._deployments.items()
        }
        # New logs: no cursor issued before this call can be answered.
        self._keys, self._names = _Log(), _Log()
        self._feed_id = object()
        self._flows = {}
        for flow in flows:
            self._flows.setdefault(flow.query, []).append(flow)
        self._price_flows()

    def recompute_costs(self, costs: np.ndarray) -> float:
        """Swap in a new cost matrix (network change); return new total."""
        self.revision += 1
        self._costs = costs
        self._price_flows()
        return self.total_cost()

    def recompute_rates(self) -> float:
        """Re-price every flow and operator under the current rate model.

        Flows are created at deployment time with the rates then in
        force; after a statistics publication they no longer reflect
        what the system actually ships.  This re-derives every operator
        record's output rate and rebuilds every flow (same endpoints,
        fresh rates) by replaying each deployment's plan in application
        order, so the state's costs answer "what does the running system
        cost *under the new statistics*" -- the quantity the adaptive
        re-optimization policy compares candidates against.  Returns the
        new total cost.

        Operator records whose creating query has since been undeployed
        (alive only through reuse) keep their recorded rate: their
        production flows are gone, so the stale rate prices nothing.
        """
        self.revision += 1
        for deployment in self._deployments.values():
            for subtree in deployment.plan.subtrees():
                if isinstance(subtree, Leaf) and not subtree.is_base_stream:
                    continue
                sig = deployment.signature(subtree.sources)
                if isinstance(subtree, Leaf) and not sig.filters:
                    continue  # only a filtered base leaf is a view operator
                rec = self._operators.get((sig, deployment.placement[subtree]))
                if rec is not None:
                    rec.rate = self._rate_of(sig)
        self._flows = {}
        for deployment in self._deployments.values():
            placement = deployment.placement
            rebuilt = self._flows[deployment.query.name] = []
            for join in deployment.plan.joins():
                node = placement[join]
                for child in (join.left, join.right):
                    if placement[child] != node:
                        rebuilt.append(self._flow(deployment, child, placement[child], node))
            root = deployment.plan
            if placement[root] != deployment.query.sink:
                rebuilt.append(
                    self._flow(deployment, root, placement[root], deployment.query.sink)
                )
        self._price_flows()
        return self.total_cost()

    # ------------------------------------------------------------------
    # External views (cross-control-plane federation)
    # ------------------------------------------------------------------
    def register_external_view(
        self,
        signature: ViewSignature,
        node: int,
        rate: float,
        owner: str,
        origin: tuple[Query, frozenset[str], frozenset[str]] | None = None,
    ) -> None:
        """Make a view deployed by *another* control plane reusable here.

        Installs (or refreshes) an operator record for ``(signature,
        node)`` with ``owner`` as a consumer, so :meth:`find_reusable`
        and :meth:`apply` treat the view exactly like a locally deployed
        operator.  ``owner`` is a book-keeping sentinel (e.g. the
        federation layer's reserved name), not a deployed query; it keeps
        the record alive until :meth:`unregister_external_view`.
        ``origin`` is the exporting plane's :meth:`view_origin`: the
        operator is the same physical instance, and the record may
        outlive the exporter's once local queries reuse it.
        """
        self.revision += 1
        key = (signature, node)
        rec = self._operators.get(key)
        if rec is None:
            rec = self._install(signature, node, rate, origin)
        rec.queries.add(owner)

    def unregister_external_view(
        self, signature: ViewSignature, node: int, owner: str
    ) -> bool:
        """Drop ``owner``'s claim on an externally registered view.

        The record disappears when no consumers remain; it survives when
        local queries still reuse it (same "alive through reuse"
        semantics as :meth:`undeploy`).  Returns ``True`` if the record
        was removed entirely.
        """
        key = (signature, node)
        rec = self._operators.get(key)
        if rec is None:
            return False
        self.revision += 1
        rec.queries.discard(owner)
        if not rec.queries:
            self._drop(key)
            return True
        return False

    def view_rate(self, signature: ViewSignature, node: int) -> float | None:
        """Recorded output rate of a deployed operator, if present."""
        rec = self._operators.get((signature, node))
        return rec.rate if rec is not None else None

    def view_origin(
        self, signature: ViewSignature, node: int
    ) -> tuple[Query, frozenset[str], frozenset[str]] | None:
        """``(query, left, right)`` of the join first installed as this
        operator; ``None`` for an absent or never-joined record."""
        rec = self._operators.get((signature, node))
        return rec.origin if rec is not None else None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def find_reusable(self, sig: ViewSignature, node: int):
        """The operator at ``node`` able to serve the view ``sig``.

        Exact signature match first; otherwise a *containing* view (same
        sources and join predicates, subset of the filters -- every
        needed tuple is present, the consumer re-applies the missing
        filters).  Returns the operator record or ``None``.
        """
        rec = self._operators.get((sig, node))
        if rec is not None:
            return rec
        for (other, other_node), candidate in self._operators.items():
            if (
                other_node == node
                and other.sources == sig.sources
                and other.predicates == sig.predicates
                and other.filters <= sig.filters
            ):
                return candidate
        return None

    def _check_leaf(
        self, deployment: Deployment, leaf: Leaf, node: int, claims: list[OperatorKey]
    ) -> None:
        if leaf.is_base_stream:
            source = self._source_fn(leaf.stream)
            if node != source:
                raise DeploymentError(
                    f"base stream {leaf.stream!r} must be placed at its source "
                    f"{source}, got {node}"
                )
            return
        sig = deployment.signature(leaf.view)
        rec = self.find_reusable(sig, node)
        if rec is None:
            raise DeploymentError(
                f"deployment for {deployment.query.name!r} reuses view {sig.label()} "
                f"at node {node}, but no such operator is deployed"
            )
        rec.queries.add(deployment.query.name)
        claims.append((rec.signature, node))

    def _flow(
        self,
        deployment: Deployment,
        child: PlanNode,
        src: int,
        dest: int,
        claims: list[OperatorKey] | None = None,
    ) -> FlowEdge:
        """The subscription shipping ``child``'s output from ``src`` to
        ``dest``; ``apply`` passes its ``claims``, ``recompute_rates`` none."""
        name = deployment.query.name
        sig = deployment.signature(child.sources)
        if isinstance(child, Leaf) and not child.is_base_stream:
            # Reused view: attribute the flow to the actual provider (which
            # may be a *containing* view with fewer filters) and ship at its
            # rate; the consumer re-applies the missing filters locally.
            rec = self.find_reusable(sig, src)
            if rec is not None:
                sig, rate = rec.signature, rec.rate
            else:
                rate = self._rate_of(sig)
            return FlowEdge(name, ("view", sig, src), dest, rate * self._reuse_inflation)
        producer: ProducerKey = ("view", sig, src)
        if isinstance(child, Leaf):
            if not sig.filters:
                producer = ("base", child.stream, src)
            elif claims is not None:
                # A filtered base stream is a view (filtering changes content);
                # the filter operator runs at the source for free transport.
                self._claim(sig, src, name, claims)
        return FlowEdge(name, producer, dest, self._rate_of(sig))

    def _claim(
        self, sig: ViewSignature, node: int, name: str, claims: list[OperatorKey]
    ) -> _OperatorRecord:
        key = (sig, node)
        rec = self._operators.get(key)
        if rec is None:
            rec = self._install(sig, node, self._rate_of(sig))
        rec.queries.add(name)
        claims.append(key)
        return rec

    def _release(self, name: str, claims: list[OperatorKey]) -> None:
        """Take ``name`` off every claimed record; drop those left empty."""
        for key in claims:
            rec = self._operators[key]
            rec.queries.discard(name)
            if not rec.queries:
                self._drop(key)

    def _claim_order(self, deployment: Deployment):
        """``(name, sources, node)`` of every record ``apply`` may claim for
        ``deployment``, in the order it would: joins and reused leaves
        in post-order, a shipped base leaf after its consumer."""
        name, placement = deployment.query.name, deployment.placement
        for subtree in deployment.plan.subtrees():
            node = placement[subtree]
            if isinstance(subtree, Join):
                yield name, subtree.sources, node
                for child in (subtree.left, subtree.right):
                    if placement[child] != node and _is_base(child):
                        yield name, child.sources, placement[child]
            elif not subtree.is_base_stream:
                yield name, subtree.sources, node
        root = deployment.plan
        if _is_base(root) and placement[root] != deployment.query.sink:
            yield name, root.sources, placement[root]

    def _install(
        self, sig: ViewSignature, node: int, rate: float, origin=None
    ) -> _OperatorRecord:
        """Create an operator record: the one place the set grows."""
        key = (sig, node)
        self._serial += 1
        rec = self._operators[key] = _OperatorRecord(
            sig, node, rate, origin=origin, serial=self._serial
        )
        self._views[sig] = self._views.get(sig, 0) + 1
        self._keys.append(key)
        return rec

    def _drop(self, key: OperatorKey) -> None:
        """Remove an operator record: the one place the set shrinks."""
        del self._operators[key]
        sig = key[0]
        if self._views[sig] == 1:
            del self._views[sig]
        else:
            self._views[sig] -= 1
        self._keys.append(key)

    def _price_flows(self) -> None:
        costs = self._costs
        self._flow_costs = {
            name: [flow.cost(costs) for flow in flows]
            for name, flows in self._flows.items()
        }
