"""Workload generation.

* :mod:`repro.workload.generator` -- the paper's Section 3 uniform
  random workload generator: stream rates, selectivities and source
  placements drawn uniformly, queries with a configurable number of
  joins and random sink placements, all against a *global* selectivity
  table so that overlapping queries produce matching view signatures
  (the precondition for operator reuse).
* :mod:`repro.workload.scenarios` -- named scenarios, most notably the
  Delta-style airline Operational Information System of Section 1.1.
* :mod:`repro.workload.profiles` -- seeded node-capacity generators
  (the supply side) for the resource layer's experiments.
* :mod:`repro.workload.world` -- :func:`build_world`, the one builder of
  the network + workload + hierarchies triple every experiment runs on.
"""

from repro.workload.generator import Workload, WorkloadParams, generate_workload
from repro.workload.profiles import HeterogeneousFleetProfile, HotspotProfile
from repro.workload.scenarios import (
    DriftTimeline,
    MonitoringScenario,
    OisScenario,
    PeriodicDrift,
    RampDrift,
    StepDrift,
    airline_ois_scenario,
    drift_timeline,
    network_monitoring_scenario,
)
from repro.workload.statistics import (
    EstimatedStatistics,
    StatisticsCollector,
    estimate_statistics,
    simulate_observation,
)
from repro.workload.world import World, build_world, world_seeds

__all__ = [
    "Workload",
    "WorkloadParams",
    "generate_workload",
    "HotspotProfile",
    "HeterogeneousFleetProfile",
    "OisScenario",
    "airline_ois_scenario",
    "MonitoringScenario",
    "network_monitoring_scenario",
    "DriftTimeline",
    "StepDrift",
    "RampDrift",
    "PeriodicDrift",
    "drift_timeline",
    "EstimatedStatistics",
    "StatisticsCollector",
    "estimate_statistics",
    "simulate_observation",
    "World",
    "build_world",
    "world_seeds",
]
