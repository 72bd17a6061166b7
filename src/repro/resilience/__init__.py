"""Fault injection and resilience policies for the control plane.

Two halves:

* :mod:`repro.resilience.faults` -- a deterministic, seeded fault
  injector for the control plane.  A :class:`FaultPlan` scripts node
  crashes/rejoins, coordinator slow-downs and outages and
  stale-statistics windows; a :class:`FaultInjector`
  applies crashes from a clock-driven hook on
  :meth:`repro.service.service.StreamQueryService.tick` and answers the
  planning path's reachability, latency and statistics queries.  The
  :data:`NULL_FAULTS` default injects nothing and costs nothing.

* :mod:`repro.resilience.policy` -- :func:`~repro.resilience.policy.retry`
  (capped exponential backoff with seeded jitter and a per-attempt
  timeout) and per-node :class:`CircuitBreaker`\\ s with half-open
  probing, aggregated by a :class:`BreakerBoard`.

:mod:`repro.resilience.degradation` ties them together: a degradation
ladder that falls back from hierarchical planning to parent-level
planning to the plan-then-deploy baseline, quarantines flapping nodes
from the placement candidates, and parks un-plannable queries until the
topology epoch advances.
"""

from repro.resilience.faults import (
    NULL_FAULTS,
    CoordinatorOutage,
    CoordinatorSlowdown,
    FaultInjector,
    FaultPlan,
    NodeCrash,
    NullFaultInjector,
    StaleStatistics,
)
from repro.resilience.policy import (
    BreakerBoard,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.degradation import ResilienceConfig, ResilientControl

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_FAULTS",
    "NodeCrash",
    "CoordinatorSlowdown",
    "CoordinatorOutage",
    "StaleStatistics",
    "CircuitBreaker",
    "BreakerBoard",
    "BreakerState",
    "ResilienceConfig",
    "ResilientControl",
]
