"""Rate estimation and the communication-cost objective.

The performance function reproduced from the paper's experiments is
*communication cost per unit time*: every data flow contributes its rate
times the traversal cost between producer and consumer nodes.  Rates of
derived streams follow the classical selectivity model:

    rate(S) = prod_{s in S} rate(s) * prod_{filters on s} sel(f)
              * prod_{predicates (a, b) with a, b in S} sel(a, b)

which makes a query's final output rate independent of join order (only
*intermediate* rates, and therefore costs, depend on the chosen tree).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.query.deployment import Deployment
from repro.query.plan import Leaf, PlanNode
from repro.query.query import Query, ViewSignature
from repro.query.stream import StreamSpec


class RateModel:
    """Estimates view output rates for a fixed set of base streams.

    Args:
        streams: Stream name -> :class:`StreamSpec`.  Every query
            optimized against this model must draw its sources from here.
        reuse_rate_inflation: Multiplier (>= 1) applied to the rate of a
            *reused* derived stream, modeling the paper's remark that
            reuse may require additional columns to be projected.  The
            default 1.0 means reuse ships exactly the view's rate.
    """

    def __init__(
        self,
        streams: Mapping[str, StreamSpec],
        reuse_rate_inflation: float = 1.0,
    ) -> None:
        if reuse_rate_inflation < 1.0:
            raise ValueError("reuse_rate_inflation must be >= 1")
        self._streams = dict(streams)
        self.reuse_rate_inflation = reuse_rate_inflation
        self._cache: dict[ViewSignature, float] = {}
        self._version = 0

    # ------------------------------------------------------------------
    @property
    def streams(self) -> dict[str, StreamSpec]:
        """The base stream catalog (name -> spec)."""
        return dict(self._streams)

    @property
    def version(self) -> int:
        """Statistics version, bumped by :meth:`update_streams`.

        Consumers that cache anything derived from rates (notably the
        query lifecycle service's plan cache) compare this counter to
        detect statistics changes.
        """
        return self._version

    def update_streams(self, streams: Mapping[str, StreamSpec]) -> bool:
        """Swap in re-estimated stream specs (rates and/or sources).

        Clears the memoized view rates and bumps :attr:`version` so
        epoch-based caches invalidate.  The new catalog must cover every
        stream of the old one (queries already planned against the model
        must stay resolvable).

        A no-op update -- every spec identical to the current catalog --
        leaves :attr:`version` alone, so periodic re-estimation that
        lands on the same numbers does not invalidate downstream plan
        caches for nothing.  Returns whether anything changed.
        """
        missing = set(self._streams) - set(streams)
        if missing:
            raise ValueError(f"updated statistics drop streams: {sorted(missing)}")
        incoming = dict(streams)
        if incoming == self._streams:
            return False
        self._streams = incoming
        self._cache.clear()
        self._version += 1
        return True

    def capture(self) -> dict:
        """The catalog, :attr:`version` and ``reuse_rate_inflation``.  The
        memoized view rates are derived: not kept."""
        return {
            "streams": [
                {"name": spec.name, "source": spec.source, "rate": spec.rate}
                for spec in self._streams.values()
            ],
            "version": self._version,
            "reuse_rate_inflation": self.reuse_rate_inflation,
        }

    def restore(self, doc: dict) -> None:
        """Assign a :meth:`capture` document in place; clears the memo.

        The version is the document's, as a network's is: a snapshot
        memo that kept a section under it would take it as current, so a
        restore goes into a pristine controller (recovery's), whose memo
        is fresh."""
        self._streams = {
            s["name"]: StreamSpec(s["name"], s["source"], s["rate"]) for s in doc["streams"]
        }
        self.reuse_rate_inflation = doc["reuse_rate_inflation"]
        self._version = doc["version"]
        self._cache.clear()

    def stream(self, name: str) -> StreamSpec:
        """Spec of one base stream."""
        try:
            return self._streams[name]
        except KeyError:
            raise KeyError(f"unknown stream {name!r}") from None

    def source(self, name: str) -> int:
        """Source node of one base stream."""
        return self.stream(name).source

    def endpoints(self, query: Query) -> set[int]:
        """Nodes ``query`` is anchored at: its sink and its streams' sources.

        A query can be planned only while all of them are in the
        hierarchy.
        """
        return {query.sink, *(self.source(name) for name in query.sources)}

    def rate(self, signature: ViewSignature) -> float:
        """Output rate of the view identified by ``signature``.

        Each of the view's ``|sources| - 1`` sliding-window joins
        contributes a factor ``2 * window``: an arrival probes the
        opposite window (expected ``r * W`` tuples) from both sides.
        With the default ``W = 1/2`` this reduces to the classical
        ``sigma * r_L * r_R``.  This is the ``rate_of``
        :class:`repro.query.deployment.DeploymentState` prices by.

        The factors multiply in ascending value order: float products are
        not associative, and the signature's sets iterate in an order that
        follows how they were built and the hash seed.
        """
        cached = self._cache.get(signature)
        if cached is not None:
            return cached
        factors = [self.stream(name).rate for name in signature.sources]
        factors += [flt.selectivity for flt in signature.filters]
        factors += [pred.selectivity for pred in signature.predicates]
        factors.sort()
        rate = math.prod(factors, start=1.0)
        joins = len(signature.sources) - 1
        if joins > 0:
            rate *= (2.0 * signature.window) ** joins
        self._cache[signature] = rate
        return rate

    def rate_for(self, query: Query, subset: Iterable[str]) -> float:
        """Output rate of the join over ``subset`` of ``query``'s streams."""
        return self.rate(query.view_signature(frozenset(subset)))

    def flow_pricer(self, query: Query) -> Callable[[PlanNode], float]:
        """Shipping rate of any sub-plan of ``query``: a function of the node.

        The rate of the node's source set (:meth:`rate_for`), times
        ``reuse_rate_inflation`` for reused-view leaves (their output may
        carry extra projected columns) -- what placement cost
        calculations should use.  Each
        distinct source set is priced once however many candidate trees
        contain it, so a pricer must not outlive the statistics
        :attr:`version` it was made under (the planners make one per
        ``plan()`` call).
        """
        priced: dict[frozenset[str], float] = {}

        def flow_rate(node: PlanNode) -> float:
            sources = node.sources
            rate = priced.get(sources)
            if rate is None:
                rate = priced[sources] = self.rate_for(query, sources)
            if isinstance(node, Leaf) and not node.is_base_stream:
                rate *= self.reuse_rate_inflation
            return rate

        return flow_rate

    def flow_rates(self, query: Query, plan: PlanNode) -> dict[PlanNode, float]:
        """:meth:`flow_pricer` applied to every subtree of ``plan``."""
        flow_rate = self.flow_pricer(query)
        return {sub: flow_rate(sub) for sub in plan.subtrees()}


def deployment_cost(
    deployment: Deployment,
    costs: np.ndarray,
    rates: RateModel,
) -> float:
    """Stand-alone communication cost of a single deployment.

    Ignores sharing with other deployed queries (reused leaves cost only
    their shipping edge; their production is considered already paid).
    Matches ``DeploymentState.apply`` on an empty state up to reuse
    (which the empty state would reject).
    """
    query = deployment.query
    flow_rate = rates.flow_pricer(query)
    total = 0.0
    for join in deployment.plan.joins():
        node = deployment.placement[join]
        for child in (join.left, join.right):
            src = deployment.placement[child]
            total += flow_rate(child) * float(costs[src, node])
    root = deployment.plan
    total += flow_rate(root) * float(costs[deployment.placement[root], query.sink])
    return total
