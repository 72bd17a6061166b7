"""IFLOW-like runtime substrate (the Emulab-prototype substitution).

The paper's prototype experiments (Figures 10 and 11) ran IFLOW on a
32-node Emulab testbed.  We reproduce the measured quantities with a
discrete-event simulation:

* :mod:`repro.runtime.events` / :mod:`repro.runtime.simulator` -- a
  classic event-queue simulator with message-passing nodes whose
  delivery delays come from the network's delay matrix.
* :mod:`repro.runtime.messages` -- the protocol message vocabulary.
* :mod:`repro.runtime.protocol` -- replays an optimizer's planning
  *task trace* as protocol traffic plus per-coordinator computation
  time, yielding the query *deployment time* Figure 10 measures.
* :mod:`repro.runtime.engine` -- the flow engine: deploys/undeploys
  query plans, tracks instantaneous cost and per-link utilization.
* :mod:`repro.runtime.middleware` -- self-adaptivity: monitors network
  condition changes and re-triggers optimization (IFLOW's Middleware
  Layer).
"""

from repro.runtime.events import Event, EventQueue
from repro.runtime.simulator import SimNode, Simulator
from repro.runtime.messages import (
    Advertisement,
    DeployAck,
    DeployCommand,
    PlanRequest,
    QuerySubmit,
)
from repro.runtime.protocol import DeploymentTimeline, simulate_deployment
from repro.runtime.engine import FlowEngine
from repro.runtime.middleware import AdaptiveMiddleware, MigrationReport
from repro.runtime.failover import FailureReport, backup_coordinator, fail_node
from repro.runtime.dataplane import DataPlaneReport, run_dataplane

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "SimNode",
    "QuerySubmit",
    "PlanRequest",
    "DeployCommand",
    "DeployAck",
    "Advertisement",
    "DeploymentTimeline",
    "simulate_deployment",
    "FlowEngine",
    "AdaptiveMiddleware",
    "MigrationReport",
    "FailureReport",
    "fail_node",
    "backup_coordinator",
    "DataPlaneReport",
    "run_dataplane",
]
