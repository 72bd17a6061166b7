"""Per-operator load estimation from the rate model.

Follows the Benoit et al. formulation: an in-network join operator's
computation demand is proportional to the tuple rate it ingests, its
memory demand to the window state it holds, and its bandwidth demand to
the traffic it moves (inputs in, output out).  All three derive from the
same machinery the adaptive subsystem already maintains --
:meth:`repro.core.cost.RateModel.rate_for` over the query's stream
subsets -- so footprints automatically track published statistics
updates (EWMA-driven re-estimates bump the model and the next estimate
sees the new rates).

Only *join* operators carry a footprint.  Base-stream leaves run at
their sources regardless of planning (and leaf-side filters ride the
source for free, matching the transport accounting in
:mod:`repro.query.deployment`), and a reused-view leaf's producing
operator was already charged by the query that deployed it -- which is
exactly how shared operators end up credited once in the ledger.
"""

from __future__ import annotations

from functools import cache, partial
from typing import Callable

from repro.perf import profiler
from repro.query.plan import Join, PlanNode
from repro.query.query import Query, ViewSignature
from repro.resources.capacity import Load


class OperatorFootprint:
    """Estimates the :class:`Load` of each join operator of a plan.

    Args:
        rates: The :class:`~repro.core.cost.RateModel` loads derive from.
        bytes_per_tuple: State-size scale applied to the memory
            dimension (same knob the migration planner uses to price
            window-state transfers).
    """

    def __init__(self, rates, bytes_per_tuple: float = 1.0) -> None:
        if bytes_per_tuple <= 0:
            raise ValueError("bytes_per_tuple must be positive")
        self.rates = rates
        self.bytes_per_tuple = bytes_per_tuple

    def join_load(
        self,
        query: Query,
        left: frozenset[str],
        right: frozenset[str],
        rate_of: Callable[[frozenset[str]], float] | None = None,
    ) -> Load:
        """Load of the join combining ``left`` and ``right`` subsets
        (``rate_of``: a caller's memo of ``rates.rate_for(query, .)``).

        * cpu -- total input tuple rate the operator must process;
        * memory -- window state: input rate x the query's window x
          ``bytes_per_tuple`` per side;
        * bandwidth -- input plus output tuple rate through the node
          (conservative: assumes no input is co-located).
        """
        if rate_of is None:
            rate_of = partial(self.rates.rate_for, query)
        inputs = rate_of(left) + rate_of(right)
        out = rate_of(left | right)
        return Load(
            cpu=inputs,
            memory=inputs * query.window * self.bytes_per_tuple,
            bandwidth=inputs + out,
        )

    def plan_loads(self, query: Query, plan: PlanNode) -> dict[Join, Load]:
        """Load of every join operator of ``plan`` (leaves carry none)."""
        return {
            join: self.join_load(query, join.left.sources, join.right.sources)
            for join in plan.joins()
        }


class JoinPricer:
    """One query's view signatures, rates and join loads, each derived
    once.  Good for one statistics version: one ``plan()``, one gate pass.
    A gate pass hands in its deployment's ``signature`` to share them."""

    def __init__(
        self,
        footprint: OperatorFootprint,
        query: Query,
        signature: Callable[[frozenset[str]], ViewSignature] | None = None,
    ) -> None:
        self.footprint = footprint
        self.query = query
        #: Source set -> view signature, and -> output rate of its join.
        self.signature = signature = signature or cache(query.view_signature)
        self.rate = cache(lambda sources: footprint.rates.rate(signature(sources)))
        self._loads: dict[tuple[frozenset[str], frozenset[str]], Load] = {}

    def join_load(self, join: Join) -> Load:
        """Load of ``join``'s operator, priced once per distinct split.

        Only ``join.left.sources`` and ``join.right.sources`` are read:
        the task search asks about splits it has built no ``Join`` for.
        """
        key = (join.left.sources, join.right.sources)
        load = self._loads.get(key)
        if load is None:
            load = self._loads[key] = self.footprint.join_load(
                self.query, *key, rate_of=self.rate
            )
            prof = profiler.active()
            if prof is not None:
                prof.count("join_loads_priced")
        return load
