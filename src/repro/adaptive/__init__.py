"""Adaptive re-optimization and live operator migration.

The closed loop that keeps deployed queries matched to *observed*
statistics: EWMA estimation and drift detection
(:class:`~repro.adaptive.stats.StatsMonitor`), amortized re-planning
decisions (:class:`~repro.adaptive.policy.ReoptPolicy`), minimal
migration diffs (:func:`~repro.adaptive.diff.diff_deployments`) and
atomic pause-drain-move-resume cutovers
(:class:`~repro.adaptive.migrate.Migrator`), orchestrated per service
tick by :class:`~repro.adaptive.loop.AdaptivityLoop`.

Enable it by passing ``adaptivity=AdaptivityConfig(...)`` to
:class:`~repro.service.service.StreamQueryService`; the default
(``None``) leaves service behavior byte-identical to a build without
this subsystem.
"""

from repro.adaptive.diff import MigrationDiff, OperatorMove, diff_deployments
from repro.adaptive.loop import AdaptiveTickReport, AdaptivityConfig, AdaptivityLoop
from repro.adaptive.migrate import (
    CutoverTimeline,
    MigrationOutcome,
    Migrator,
)
from repro.adaptive.policy import ReoptDecision, ReoptPolicy
from repro.adaptive.stats import EwmaEstimator, StatsMonitor, StreamDrift

__all__ = [
    "AdaptiveTickReport",
    "AdaptivityConfig",
    "AdaptivityLoop",
    "CutoverTimeline",
    "EwmaEstimator",
    "MigrationDiff",
    "MigrationOutcome",
    "Migrator",
    "OperatorMove",
    "ReoptDecision",
    "ReoptPolicy",
    "StatsMonitor",
    "StreamDrift",
    "diff_deployments",
]
