"""Per-node utilization accounting for one service.

The :class:`ResourceLedger` answers "how loaded is node *n* right now"
for the one :class:`~repro.query.deployment.DeploymentState` it is
attached to.  The state stays the single source of truth: the ledger
keeps *books* -- one priced :class:`~repro.resources.capacity.Load` per
live operator and one sum per node -- and reconciles them against the
state at the top of every read.  Nothing is wired into the code that
mutates a state (admission, retirement, live migration, node failover,
crash recovery); the state carries a monotone ``revision`` and the rate
model a ``version``, so a read costs

* O(1) when neither moved since the last read;
* when the revision moved, one read of the state's feeds of query
  names and operator keys changed since the last read, pricing only the
  operators of deployments that appeared and re-summing only the nodes
  they or the vanished ones touch;
* one re-pricing of every booked operator when statistics were
  published.

Reuse is credited once: operator instances are identified by their
``(view signature, node)`` key exactly as the deployment state keys
them, so a view shared by five queries is charged to its node exactly
one time.  The *pricer* of a key is the first deployment, in
application order, that holds a join with that key (the join's split
decides cpu and memory, so who prices matters); the other holders ride
free and the next one takes over when the pricer leaves.  An operator
that outlived every holder -- reusers keep it running -- is priced from
the ``origin`` its state recorded at install time.  Reused-view
*leaves* never carry load at all -- see :mod:`repro.resources.footprint`.

A node's load is always re-summed from its operators' loads, exactly
(:func:`~repro.resources.capacity.exact_sum`), instead of adding and
subtracting deltas: float addition is not associative, the sums feed
gauges and reports that are compared byte for byte, and a ledger
restored from a snapshot meets the operators in another order than the
live one did.
"""

from __future__ import annotations

import itertools
from typing import Container, Mapping, NamedTuple

from repro.obs.tracer import count
from repro.query.deployment import Deployment, DeploymentState
from repro.query.plan import Join
from repro.resources.capacity import UNBOUNDED, Load, NodeCapacity, ZERO_LOAD, exact_sum
from repro.resources.footprint import JoinPricer, OperatorFootprint
from repro.utils import ChangeFeed

#: Hottest nodes :meth:`ResourceLedger.summary` lists.
SUMMARY_HOT_NODES = 5


class _Holder(NamedTuple):
    """One deployment's join under an operator key; the first two fields
    are its position in the application-order walk."""

    seq: int
    index: int
    deployment: Deployment
    join: Join


class _Operator:
    """One booked ``(signature, node)`` operator."""

    __slots__ = ("holders", "struct", "load")

    def __init__(self) -> None:
        # Sorted in walk order: the first holder prices the operator.
        self.holders: list[_Holder] = []
        # (query, left sources, right sources) behind ``load``.
        self.struct: tuple | None = None
        self.load: Load = ZERO_LOAD


class ResourceLedger:
    """Per-node utilization of the one attached deployment state.

    Args:
        capacities: ``{node: NodeCapacity}``; missing nodes (or a
            ``None`` mapping) are unbounded.
    """

    def __init__(self, capacities: Mapping[int, NodeCapacity] | None = None) -> None:
        self.capacities: dict[int, NodeCapacity] = dict(capacities or {})
        self.state: DeploymentState | None = None
        self.footprint: OperatorFootprint | None = None
        # (state.revision, id(rates), rates.version) at the last reconcile.
        self._seen: tuple | None = None
        # The state's feed cursor at the last reconcile.
        self._cursor: tuple | None = None
        # name -> (deployment, seq, join keys); seq grows in application
        # order because a state only ever appends deployments.
        self._deployments: dict[str, tuple[Deployment, int, list[tuple]]] = {}
        # key -> the live operator record.
        self._records: dict[tuple, object] = {}
        self._seq = itertools.count()
        self._operators: dict[tuple, _Operator] = {}
        self._on_node: dict[int, dict[tuple, _Operator]] = {}
        self._loads: dict[int, Load] = {}
        self._dirty: set[int] = set()
        # node -> utilization in node order, kept current by _resum (None =
        # rebuild), and the capacities they were computed under.
        self._utils: dict[int, float] | None = None
        self._utils_capacities: dict[int, NodeCapacity] = {}
        # The tracked nodes over ``_over_bound`` (None = filter again).
        self._over: dict[int, float] | None = None
        self._over_bound = 1.0
        # Nodes re-summed since the last rebuild of ``_utils`` (a reset).
        self._moved = ChangeFeed()
        # The live record keys as a frozenset; None = rebuild on demand.
        self._live_keys: frozenset[tuple] | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, state: DeploymentState, footprint: OperatorFootprint) -> None:
        """Track the operators of ``state`` (idempotent); a ledger books
        one state, so attaching another raises ``ValueError``."""
        if self.state is not None and self.state is not state:
            raise ValueError("a ResourceLedger books exactly one deployment state")
        if self.state is None:
            self.state, self.footprint = state, footprint

    @property
    def constrained(self) -> bool:
        """Whether any node has a finite capacity in any dimension."""
        return any(not cap.unbounded for cap in self.capacities.values())

    def capacity(self, node: int) -> NodeCapacity:
        """The node's capacity (unbounded when unconfigured)."""
        return self.capacities.get(node, UNBOUNDED)

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Bring the books up to date with the attached state."""
        if self.state is None:
            return
        rates = self.footprint.rates
        seen = (self.state.revision, id(rates), rates.version)
        if seen == self._seen:
            return
        reprice = self._seen is not None and seen[1:] != self._seen[1:]
        stale = self._seen is None or seen[0] != self._seen[0]
        self._seen = seen
        priced = 0
        if reprice:
            for op in self._operators.values():
                self._price(op)
            priced += len(self._operators)
            self._dirty.update(self._on_node)
        touched: dict[tuple, None] = {}
        if stale:
            self._diff(touched)
        for key in touched:
            priced += self._elect(key)
        if priced:
            count("ledger_ops_priced", priced)

    def _diff(self, touched: dict[tuple, None]) -> None:
        """Fold what the state's feeds say changed into the books.

        A changed name loses its known deployment and, when live, is
        booked afresh; names are visited in the order of their last
        change, so fresh deployments take their ``seq`` in application
        order.  A changed key is re-read.  When a feed cannot answer,
        every known and every live name (or key) counts as changed.
        """
        state, known, records = self.state, self._deployments, self._records
        names = state.names_since(self._cursor)
        if names is None:
            names = [*known, *(d.query.name for d in state.deployments)]
        keys = state.changes_since(self._cursor)
        if keys is None:
            keys = [*records, *state.operators()]
        self._cursor = state.feed_cursor()
        count("ledger_deployments_examined", len(names))
        count("ledger_records_examined", len(keys))
        for name in reversed(dict.fromkeys(reversed(names))):
            entry = known.pop(name, None)
            if entry is not None:
                for key in entry[2]:
                    op = self._operators[key]
                    op.holders = [h for h in op.holders if h.deployment is not entry[0]]
                    touched[key] = None
            deployment = state.deployment(name)
            if deployment is None:
                continue
            seq = next(self._seq)
            held = []
            for index, join in enumerate(deployment.plan.joins()):
                key = (deployment.signature(join.sources), deployment.placement[join])
                op = self._operators.get(key) or self._book(key)
                op.holders.append(_Holder(seq, index, deployment, join))
                op.holders.sort(key=_walk_order)
                held.append(key)
                touched[key] = None
            known[name] = (deployment, seq, held)

        for key in keys:
            rec = state.operator_record(key)
            if records.get(key) is rec:
                continue
            if rec is None:
                del records[key]
            else:
                records[key] = rec
            touched[key] = None
            self._live_keys = None

    def _book(self, key: tuple) -> _Operator:
        op = self._operators[key] = _Operator()
        self._on_node.setdefault(key[1], {})[key] = op
        return op

    def _elect(self, key: tuple) -> int:
        """Re-elect the pricer of one operator; returns 1 if it was priced."""
        op = self._operators.get(key)
        struct = None
        if op is not None and op.holders:
            first = op.holders[0]
            struct = (first.deployment.query, first.join.left.sources, first.join.right.sources)
        else:
            # No deployment's plan walks it anymore: charge it from the
            # origin recorded at install time, while it stays live.
            rec = self._records.get(key)
            if rec is not None and rec.origin is not None:
                struct = rec.origin
        node = key[1]
        if struct is None:
            # Dead, or never a join (external and filter-only view
            # records carry no load).
            if op is not None:
                del self._operators[key]
                del self._on_node[node][key]
                self._dirty.add(node)
            return 0
        if op is None:
            op = self._book(key)
        self._dirty.add(node)
        if op.struct is not None and _same_struct(op.struct, struct):
            return 0
        op.struct = struct
        self._price(op)
        return 1

    def _price(self, op: _Operator) -> None:
        op.load = self.footprint.join_load(*op.struct)

    def _resum(self, node: int) -> None:
        """Re-sum one node from its operators, exactly."""
        self._dirty.discard(node)
        ops = self._on_node.get(node)
        total = exact_sum(op.load for op in (ops or {}).values())
        if ops:
            self._loads[node] = total
        else:
            self._on_node.pop(node, None)
            self._loads.pop(node, None)
        if self._utils is not None:
            if node in self._utils and node in self.capacities:
                ratio = self._utils[node] = total.utilization(self.capacities[node])
                self._moved.touch(node)
                if self._over is not None:
                    self._over.pop(node, None)
                    if ratio > self._over_bound + 1e-9:
                        self._over[node] = ratio
            else:
                # The tracked set may change: rebuild, in node order.
                self._utils = None

    def _settled_loads(self) -> dict[int, Load]:
        self._sync()
        for node in list(self._dirty):
            self._resum(node)
        return self._loads

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def operator_keys(self) -> frozenset[tuple]:
        """Live ``(signature, node)`` operator keys."""
        self._sync()
        if self._live_keys is None:
            self._live_keys = frozenset(self._records)
        return self._live_keys

    def node_loads(self) -> dict[int, Load]:
        """Current load per node, shared operators charged once.

        Returns a fresh dict the caller may mutate.
        """
        return dict(self._settled_loads())

    def _settled_utils(self) -> dict[int, float]:
        """Every tracked node's utilization in node order, remembered until
        the node is re-summed or ``capacities`` is edited (do not mutate)."""
        loads = self._settled_loads()
        if self._utils is None or self._utils_capacities != self.capacities:
            self._utils_capacities = dict(self.capacities)
            self._utils = {
                node: loads.get(node, ZERO_LOAD).utilization(self.capacity(node))
                for node in sorted(set(self.capacities) | set(loads))
            }
            self._moved.reset()
            self._over = None
        return self._utils

    def utilization_changes(
        self, cursor: int | None
    ) -> tuple[int, list[int] | None, dict[int, float]]:
        """``(next cursor, nodes, ratios)``: the nodes re-summed since
        ``cursor`` in node order -- ``None`` when any may have moved (no
        cursor yet, ``capacities`` edited, tracked set rebuilt) -- and the
        ratios of :meth:`utilizations` (do not mutate)."""
        utils = self._settled_utils()
        nodes = self._moved.since(cursor)
        return self._moved.cursor, nodes and sorted(nodes), utils

    def max_utilization(self) -> float:
        """The hottest node's utilization ratio (0 when no node is tracked)."""
        return max(self._settled_utils().values(), default=0.0)

    def violations(
        self,
        bound: float = 1.0,
        extra: Mapping[int, Load] | None = None,
    ) -> list[tuple[int, float]]:
        """Nodes exceeding ``bound``, optionally with ``extra`` load added.

        Returns ``[(node, projected_utilization), ...]`` sorted hottest
        first; empty means the (projected) load is feasible.  Those over
        the bound last asked for are kept as ratios are re-summed.
        """
        utils = self._settled_utils()
        if self._over is None or bound != self._over_bound:
            self._over_bound = bound
            self._over = {node: util for node, util in utils.items() if util > bound + 1e-9}
        over = self._over
        if extra:
            # Only the nodes ``extra`` names are re-priced.
            over = over | {
                node: (self._loads.get(node, ZERO_LOAD) + load).utilization(
                    self.capacity(node)
                )
                for node, load in extra.items()
            }
        out = [(node, util) for node, util in over.items() if util > bound + 1e-9]
        return sorted(out, key=lambda item: (-item[1], item[0]))

    def hot_nodes(self, k: int) -> list[tuple[int, float]]:
        """The ``k`` hottest nodes as ``(node, utilization)``, descending."""
        ranked = sorted(self._settled_utils().items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: max(0, k)]

    def queries_on(self, node: int) -> list[str]:
        """Names of queries with a join operator placed on ``node``."""
        self._sync()
        holders = sorted(
            (h for op in self._on_node.get(node, {}).values() for h in op.holders),
            key=_walk_order,
        )
        return list(dict.fromkeys(h.deployment.query.name for h in holders))

    def summary(self) -> dict:
        """JSON-able snapshot for reports and the CLI (the
        :data:`SUMMARY_HOT_NODES` hottest nodes)."""
        utils = self._settled_utils()
        return {
            "nodes_tracked": len(utils),
            "constrained": self.constrained,
            "max_utilization": max(utils.values()) if utils else 0.0,
            "mean_utilization": (
                sum(utils.values()) / len(utils) if utils else 0.0
            ),
            "hot_nodes": [
                {"node": node, "utilization": util}
                for node, util in self.hot_nodes(SUMMARY_HOT_NODES)
            ],
            "overloaded": [
                {"node": node, "utilization": util}
                for node, util in self.violations()
            ],
        }


def _walk_order(holder: _Holder) -> tuple:
    return holder[:2]


def _same_struct(a: tuple, b: tuple) -> bool:
    return a[0] is b[0] and a[1] == b[1] and a[2] == b[2]


def plan_node_loads(
    footprint: OperatorFootprint,
    query,
    plan,
    placement: Mapping,
    skip_keys: Container[tuple] = (),
    pricer: JoinPricer | None = None,
) -> dict[int, Load]:
    """Per-node load a deployment would *add*, reuse credited.

    Join operators whose ``(signature, node)`` key appears in
    ``skip_keys`` (already live) add nothing --
    the admission gate and the planners' joint-feasibility check both
    use this to price a candidate placement against the ledger.  A
    caller pricing many placements of one query hands in its ``pricer``
    so signatures and loads are derived once across them.
    """
    if pricer is None:
        pricer = JoinPricer(footprint, query)
    out: dict[int, Load] = {}
    for join in plan.joins():
        assert isinstance(join, Join)
        node = placement[join]
        if (pricer.signature(join.sources), node) in skip_keys:
            continue
        out[node] = out.get(node, ZERO_LOAD) + pricer.join_load(join)
    return out
