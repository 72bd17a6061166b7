"""Stream and query model.

* :mod:`repro.query.stream` -- base stream sources (name, source node,
  rate) and filters.
* :mod:`repro.query.query` -- select-project-join continuous queries with
  equi-join predicate graphs, plus canonical *view signatures* that define
  when two (sub)queries compute the same thing (the unit of operator
  reuse).
* :mod:`repro.query.plan` -- bushy join trees whose leaves are views
  (base streams or reusable derived streams).
* :mod:`repro.query.deployment` -- a query's chosen plan + operator
  placement, and the global :class:`DeploymentState` that owns every
  deployed operator and data flow in the system with reuse-aware cost
  accounting.
* :mod:`repro.query.sql` -- a small SQL parser for the paper's Q1/Q2
  style query text.
"""

from repro.query.stream import Filter, StreamSpec
from repro.query.query import JoinPredicate, Query, ViewSignature
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.deployment import Deployment, DeploymentState, FlowEdge
from repro.query.sql import SqlError, parse_query

__all__ = [
    "StreamSpec",
    "Filter",
    "JoinPredicate",
    "Query",
    "ViewSignature",
    "PlanNode",
    "Leaf",
    "Join",
    "Deployment",
    "DeploymentState",
    "FlowEdge",
    "SqlError",
    "parse_query",
]
