"""IFLOW-like runtime substrate (the Emulab-prototype substitution).

The paper's prototype experiments (Figures 10 and 11) ran IFLOW on a
32-node Emulab testbed.  We reproduce the measured quantities:

* :mod:`repro.runtime.protocol` -- times an optimizer's planning *task
  trace* as protocol traffic plus per-coordinator computation time,
  yielding the query *deployment time* Figure 10 measures.
* :mod:`repro.runtime.events` / :mod:`repro.runtime.simulator` -- an
  event-queue simulator with message-passing nodes, on which the
  tuple-level data plane (:mod:`repro.runtime.dataplane`) runs.
* :mod:`repro.runtime.engine` -- the flow engine: deploys/undeploys
  query plans, tracks instantaneous cost and per-link utilization.

IFLOW's Middleware Layer -- re-triggering optimization when network,
load or data conditions change -- is the service's layers:
:mod:`repro.adaptive` re-plans live queries when the topology or
statistics epoch moves, and :mod:`repro.resources` keeps node load
under capacity.
"""

from repro.runtime.events import Event, EventQueue
from repro.runtime.simulator import SimNode, Simulator
from repro.runtime.protocol import DeploymentTimeline, simulate_deployment
from repro.runtime.engine import FlowEngine
from repro.runtime.failover import FailureReport, backup_coordinator, fail_node
from repro.runtime.dataplane import DataPlaneReport, run_dataplane

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SimNode",
    "DeploymentTimeline",
    "simulate_deployment",
    "FlowEngine",
    "FailureReport",
    "fail_node",
    "backup_coordinator",
    "DataPlaneReport",
    "run_dataplane",
]
