"""Typed exception hierarchy for the whole package.

Every error the package raises deliberately derives from
:class:`ReproError`, so callers embedding the optimizer or the lifecycle
service can catch one base class at their boundary instead of fishing
for bare ``ValueError``/``KeyError``.  Classes double-inherit from the
builtin they historically were (``AdmissionError`` is still a
``ValueError``, ``UnknownQueryError`` still a ``KeyError``), so existing
``except ValueError`` call sites and tests keep working unchanged.

The resilience layer (:mod:`repro.resilience`) extends the planning
branch with transient-failure classes (:class:`CoordinatorUnreachable`,
:class:`CircuitOpenError`, :class:`CoordinatorTimeout`) that its retry
and circuit-breaker machinery treats as retryable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every deliberate error raised by this package."""


class PlanningError(ReproError):
    """Query planning failed (optimizer error, or every rung of the
    degradation ladder exhausted)."""


class InfeasiblePlacementError(PlanningError):
    """No operator placement satisfies the active resource constraint.

    Raised by the constrained planners (see :mod:`repro.resources`) when
    every candidate tree violates a node's utilization bound.  Derives
    from :class:`PlanningError` so the resilience layer's parking path
    treats an infeasible query like any other un-plannable one."""


class CoordinatorUnreachable(PlanningError):
    """A planning coordinator could not be contacted (crash, outage
    window, or network partition).  Retryable."""


class CoordinatorTimeout(PlanningError):
    """A planning coordinator answered too slowly for the per-attempt
    timeout (e.g. an injected slow-down).  Retryable."""


class CircuitOpenError(PlanningError):
    """A circuit breaker refused the call without attempting it."""


class DeploymentError(ReproError, ValueError):
    """A deployment is invalid or cannot be applied to the live state."""


class AdmissionError(ReproError, ValueError):
    """Admission control was misconfigured or misused."""


class HierarchyError(ReproError, ValueError):
    """A hierarchy operation violates its structural rules."""


class NodeNotFoundError(HierarchyError, KeyError):
    """A referenced node is not part of the hierarchy/network."""

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return Exception.__str__(self)


class UnknownQueryError(ReproError, KeyError):
    """A referenced query is not known to the component."""

    def __str__(self) -> str:
        return Exception.__str__(self)


class FaultInjectionError(ReproError, ValueError):
    """A fault plan is malformed or cannot be applied."""


class StateMismatchError(ReproError, ValueError):
    """A snapshot does not fit the controller it is restored into: it
    was written by another state version, it has a section for a layer
    the recovery factory did not arm, or an armed layer's section is
    missing.  Recovering anyway would silently drop that state."""
