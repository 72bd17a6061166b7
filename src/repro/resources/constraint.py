"""The resource constraint the placement DP optimizes under.

A :class:`PlacementConstraint` is built per ``plan()`` call from a
snapshot of the ledger (background load per node, live operator keys for
reuse credit), is that call's :class:`~repro.resources.footprint.JoinPricer`
(signatures, rates and join loads derived once however many trees and
joint checks ask) and prices one query's join operators:

* **Feasibility mask** -- per join, per candidate node: would placing
  this operator there push the node past ``bound x capacity`` given the
  background load?  Infeasible candidates cost ``inf`` in the DP, so
  whole subtrees route around hot nodes.
* **Bi-criteria penalty** -- with ``load_weight > 0`` the DP objective
  becomes ``communication cost + load_weight x projected utilization``
  per operator, trading shipping cost against load spread even while
  every node is still under its bound.
* **Joint validation** -- the DP prices operators independently, so two
  operators of the *same* query landing on one node could jointly
  exceed what each passes alone.  :meth:`validate` re-checks the
  complete placement with all of the query's operators summed per node
  (and live operators credited once), which is the check the planners
  and the admission gate both trust.

The per-operator mask is therefore a pruning heuristic and the joint
check is the contract: nothing a constrained planner returns ever
violates the bound.

A node is *cold* when its background load plus the most the whole query
could add to it stays under the bound: there every mask reads ``True``
and every placement passes :meth:`validate`, so :meth:`binds` lets the
task search skip both on candidates that are all cold.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from repro.obs.tracer import count
from repro.query.plan import Join, PlanNode
from repro.query.query import Query
from repro.resources.capacity import Load, NodeCapacity, UNBOUNDED, ZERO_LOAD
from repro.resources.footprint import JoinPricer, OperatorFootprint
from repro.resources.ledger import plan_node_loads

_EPS = 1e-9
#: Relative slack of the cold certificate: covers the multiplication and
#: summation orders the certified loads are computed in.
_SLACK = 1e-6


class PlacementConstraint(JoinPricer):
    """Capacity/bound pricing of one query's candidate placements.

    Args:
        query: The query being planned.
        footprint: Estimator for its operators' loads.
        capacities: ``{node: NodeCapacity}`` (missing = unbounded).
        base_loads: Background load per node (ledger snapshot, this
            query excluded).
        live_keys: ``(signature, node)`` keys of operators already
            live; matching operators of this plan are free
            (reuse credit).
        bound: Max allowed utilization ratio per node.
        load_weight: Bi-criteria weight; 0 keeps the objective pure
            communication cost subject to the bound.
    """

    def __init__(
        self,
        query: Query,
        footprint: OperatorFootprint,
        capacities: Mapping[int, NodeCapacity],
        base_loads: Mapping[int, Load],
        live_keys: frozenset = frozenset(),
        bound: float = 1.0,
        load_weight: float = 0.0,
    ) -> None:
        if bound <= 0:
            raise ValueError("utilization bound must be positive")
        if load_weight < 0:
            raise ValueError("load_weight must be >= 0")
        super().__init__(footprint, query)
        self.capacities = capacities
        self.base_loads = base_loads
        self.live_keys = frozenset(live_keys)
        self.bound = bound
        self.load_weight = load_weight
        # (candidates, base[n x 3], capacity[n x 3], unbounded[n x 3])
        # of the array asked about last: a placement DP always asks with one.
        self._arrays: tuple | None = None
        # node -> whether it is cold (:meth:`_cold`).
        self._cold_nodes: dict[int, bool] = {}

    # ------------------------------------------------------------------
    def _projected(self, node: int, load: Load) -> float:
        base = self.base_loads.get(node, ZERO_LOAD)
        return (base + load).utilization(self.capacities.get(node, UNBOUNDED))

    def _projected_all(self, sub: Join, candidates: np.ndarray) -> np.ndarray:
        """:meth:`_projected` of ``sub``'s load at every candidate: the
        IEEE operations of ``Load.__add__`` and ``Load.utilization`` in
        their order (add, divide, unbounded reads 0, max), so bit-equal."""
        arrays = self._arrays
        if arrays is None or arrays[0] is not candidates:
            nodes = candidates.tolist()
            base = np.array(
                [_dimensions(self.base_loads.get(node, ZERO_LOAD)) for node in nodes]
            )
            capacity = np.array(
                [_dimensions(self.capacities.get(node, UNBOUNDED)) for node in nodes]
            )
            arrays = self._arrays = (candidates, base, capacity, np.isinf(capacity))
        _, base, capacity, unbounded = arrays
        ratios = (base + _dimensions(self.join_load(sub))) / capacity
        ratios[unbounded] = 0.0
        return ratios.max(axis=1)

    @cached_property
    def _worst(self) -> tuple[float, float, float]:
        """Per dimension, the most the query's ``k - 1`` joins add to one
        node, each at most cpu ``2M``, memory ``2M x window x bytes`` and
        bandwidth ``3M``: ``M`` is the largest rate of any stream subset."""
        query = self.query
        names = list(query.sources)
        rates = self.footprint.rates
        base = [rates.stream(name).rate for name in names]
        for flt in dict.fromkeys(query.filters):  # a signature's sets of them
            base[names.index(flt.stream)] *= flt.selectivity
        # peak[mask]: rate of the stream subset ``mask``, built up by
        # adding its highest-numbered stream to the rest.
        links: list[list[tuple[int, float]]] = [[] for _ in names]
        for pred in dict.fromkeys(query.predicates):
            a, b = names.index(pred.left), names.index(pred.right)
            links[max(a, b)].append((1 << min(a, b), pred.selectivity))
        step = 2.0 * query.window
        peak = [1.0] * (1 << len(names))
        for mask in range(1, len(peak)):
            i = mask.bit_length() - 1
            rest = mask ^ (1 << i)
            rate = peak[rest] * base[i]
            for bit, selectivity in links[i]:
                if rest & bit:
                    rate *= selectivity
            peak[mask] = rate * step if rest else rate
        top = max(peak[1:]) * (1.0 + _SLACK) * (len(names) - 1)
        return (
            2.0 * top,
            2.0 * top * query.window * self.footprint.bytes_per_tuple,
            3.0 * top,
        )

    def _cold(self, node: int) -> bool:
        """Whether nothing this query places on ``node`` can push it past
        the bound."""
        cold = self._cold_nodes.get(node)
        if cold is None:
            limit = self.bound * (1.0 - _SLACK)
            cold = self._cold_nodes[node] = all(
                math.isinf(cap) or base + worst <= limit * cap
                for base, worst, cap in zip(
                    _dimensions(self.base_loads.get(node, ZERO_LOAD)),
                    self._worst,
                    _dimensions(self.capacities.get(node, UNBOUNDED)),
                )
            )
        return cold

    def binds(self, candidates: Iterable[int]) -> bool:
        """Whether a search over ``candidates`` needs the masks, penalties
        and joint checks: a load penalty is weighed, or a node is hot."""
        return self.load_weight > 0 or not all(map(self._cold, candidates))

    # ------------------------------------------------------------------
    # DP interface
    # ------------------------------------------------------------------
    def join_mask(self, sub: Join, candidates: np.ndarray) -> np.ndarray:
        """Boolean feasibility of placing ``sub``'s operator per candidate
        (``sub``: a ``Join``, or whatever :meth:`join_load` can read)."""
        return self._projected_all(sub, candidates) <= self.bound + _EPS

    def join_penalty(self, sub: Join, candidates: np.ndarray) -> np.ndarray | None:
        """Bi-criteria penalty per candidate, or ``None`` when weight is 0."""
        if self.load_weight == 0.0:
            return None
        return self.load_weight * self._projected_all(sub, candidates)

    # ------------------------------------------------------------------
    # Joint checks
    # ------------------------------------------------------------------
    def added_loads(
        self, plan: PlanNode, placement: Mapping[PlanNode, int]
    ) -> dict[int, Load]:
        """Per-node load the full placement adds, reuse credited."""
        return plan_node_loads(
            self.footprint, self.query, plan, placement,
            skip_keys=self.live_keys, pricer=self,
        )

    def validate(self, plan: PlanNode, placement: Mapping[PlanNode, int]) -> bool:
        """Whether the complete placement keeps every node under the bound."""
        count("joint_validations")
        if all(self._cold(placement[join]) for join in plan.joins()):
            return True
        for node, load in self.added_loads(plan, placement).items():
            if self._projected(node, load) > self.bound + _EPS:
                return False
        return True


def _dimensions(value: Load | NodeCapacity) -> tuple[float, float, float]:
    return value.cpu, value.memory, value.bandwidth
