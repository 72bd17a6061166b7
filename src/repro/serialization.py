"""JSON serialization for networks, queries, workloads and observability.

Reproducible-experiment plumbing: a generated network + workload pair
fully determines every experiment in this package, so persisting them
lets a result be regenerated (or inspected) without re-running the
generators.  Optimizer traces and plan explanations serialize too, so a
planning decision can be archived next to the results it produced.
Formats are plain JSON documents with a ``kind`` tag and a ``version``
for forward compatibility.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.network.graph import Network
from repro.obs.explain import PlanExplanation
from repro.obs.tracer import Span
from repro.query.query import JoinPredicate, Query
from repro.query.stream import Filter, StreamSpec
from repro.workload.generator import Workload, WorkloadParams

if TYPE_CHECKING:
    from repro.obs.causal import CausalTracer

FORMAT_VERSION = 1


def _load(text: str, kind: str, what: str) -> dict[str, Any]:
    """Parse ``text``: a JSON object tagged ``kind``, or ``ValueError``."""
    doc = json.loads(text)
    found = doc.get("kind") if isinstance(doc, dict) else None
    if found != kind:
        raise ValueError(f"not a serialized {what}: kind={found!r}")
    return doc


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------
def network_fields(network: Network) -> dict[str, Any]:
    """A network's ``nodes`` (ids, kinds) and ``links`` (all attributes,
    an unbounded bandwidth as ``None``), in id and endpoint order: the
    fields a manifest and a snapshot section share."""
    return {
        "nodes": [
            {"id": node, "kind": network.node_kind(node)} for node in network.nodes()
        ],
        "links": [
            {
                "u": link.u,
                "v": link.v,
                "cost": link.cost,
                "delay": link.delay,
                "bandwidth": link.bandwidth if link.bandwidth != float("inf") else None,
                "kind": link.kind,
            }
            for link in network.links()
        ],
    }


def network_to_json(network: Network) -> str:
    """Serialize a network (nodes, kinds, links with all attributes)."""
    doc = {"kind": "repro.network", "version": FORMAT_VERSION, **network_fields(network)}
    return json.dumps(doc, indent=2)


def network_from_json(text: str) -> Network:
    """Rebuild a network serialized by :func:`network_to_json`."""
    doc = _load(text, "repro.network", "network")
    net = Network()
    for node in sorted(doc["nodes"], key=lambda n: n["id"]):
        created = net.add_node(kind=node.get("kind", ""))
        if created != node["id"]:
            raise ValueError("serialized node ids must be contiguous from 0")
    for link in doc["links"]:
        net.add_link(
            link["u"],
            link["v"],
            cost=link["cost"],
            delay=link.get("delay", 0.001),
            bandwidth=link.get("bandwidth") or float("inf"),
            kind=link.get("kind", ""),
        )
    return net


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def _query_to_dict(query: Query) -> dict[str, Any]:
    return {
        "name": query.name,
        "sources": list(query.sources),
        "sink": query.sink,
        "window": query.window,
        "allow_cross_products": query.allow_cross_products,
        "projection": list(query.projection),
        "predicates": [
            {
                "left": p.left,
                "right": p.right,
                "selectivity": p.selectivity,
                "left_attr": p.left_attr,
                "right_attr": p.right_attr,
            }
            for p in query.predicates
        ],
        "filters": [
            {"stream": f.stream, "predicate": f.predicate, "selectivity": f.selectivity}
            for f in query.filters
        ],
    }


def _query_from_dict(doc: dict[str, Any]) -> Query:
    return Query(
        name=doc["name"],
        sources=doc["sources"],
        sink=doc["sink"],
        predicates=[JoinPredicate(**p) for p in doc.get("predicates", [])],
        filters=[Filter(**f) for f in doc.get("filters", [])],
        projection=doc.get("projection", ()),
        allow_cross_products=doc.get("allow_cross_products", False),
        window=doc.get("window", 0.5),
    )


def query_to_json(query: Query) -> str:
    """Serialize a single query."""
    return json.dumps(
        {"kind": "repro.query", "version": FORMAT_VERSION, **_query_to_dict(query)},
        indent=2,
    )


def query_from_json(text: str) -> Query:
    """Rebuild a query serialized by :func:`query_to_json`."""
    doc = _load(text, "repro.query", "query")
    return _query_from_dict(doc)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def workload_to_json(workload: Workload) -> str:
    """Serialize a workload (streams, selectivities, queries, params)
    with its network embedded (a self-contained manifest)."""
    doc: dict[str, Any] = {
        "kind": "repro.workload",
        "version": FORMAT_VERSION,
        "seed": workload.seed,
        "params": {
            "num_streams": workload.params.num_streams,
            "num_queries": workload.params.num_queries,
            "joins_per_query": list(workload.params.joins_per_query),
            "rate_range": list(workload.params.rate_range),
            "selectivity_range": list(workload.params.selectivity_range),
            "predicate_style": workload.params.predicate_style,
            "window_range": list(workload.params.window_range),
        },
        "streams": [
            {"name": s.name, "source": s.source, "rate": s.rate}
            for s in workload.streams.values()
        ],
        "selectivities": [
            {"pair": sorted(pair), "selectivity": sel}
            for pair, sel in sorted(workload.selectivities.items(), key=lambda kv: sorted(kv[0]))
        ],
        "queries": [_query_to_dict(q) for q in workload.queries],
        "network": json.loads(network_to_json(workload.network)),
    }
    return json.dumps(doc, indent=2)


def workload_from_json(text: str) -> Workload:
    """Rebuild a workload serialized by :func:`workload_to_json`."""
    doc = _load(text, "repro.workload", "workload")
    embedded = doc.get("network")
    if embedded is None:
        raise ValueError("document has no embedded network")
    network = network_from_json(json.dumps(embedded))
    params_doc = doc["params"]
    params = WorkloadParams(
        num_streams=params_doc["num_streams"],
        num_queries=params_doc["num_queries"],
        joins_per_query=tuple(params_doc["joins_per_query"]),
        rate_range=tuple(params_doc["rate_range"]),
        selectivity_range=tuple(params_doc["selectivity_range"]),
        predicate_style=params_doc["predicate_style"],
        window_range=tuple(params_doc.get("window_range", (0.5, 0.5))),
    )
    streams = {
        s["name"]: StreamSpec(s["name"], s["source"], s["rate"])
        for s in doc["streams"]
    }
    selectivities = {
        frozenset(item["pair"]): item["selectivity"] for item in doc["selectivities"]
    }
    queries = [_query_from_dict(q) for q in doc["queries"]]
    return Workload(
        network=network,
        streams=streams,
        selectivities=selectivities,
        queries=queries,
        params=params,
        seed=doc.get("seed"),
    )


# ----------------------------------------------------------------------
# Observability: traces and plan explanations
# ----------------------------------------------------------------------
def trace_to_json(span: Span) -> str:
    """Serialize one span tree (as from ``Tracer.last_root``)."""
    doc = {
        "kind": "repro.trace",
        "version": FORMAT_VERSION,
        "root": span.to_dict(),
    }
    return json.dumps(doc, indent=2)


def trace_from_json(text: str) -> Span:
    """Rebuild a span tree serialized by :func:`trace_to_json`.

    The rebuilt spans carry durations and counters but are detached from
    any tracer (they cannot be re-entered).
    """
    doc = _load(text, "repro.trace", "trace")
    return Span.from_dict(doc["root"])


def causal_trace_to_json(tracer: CausalTracer) -> str:
    """Serialize a :class:`repro.obs.causal.CausalTracer`'s hop trees."""
    doc = {
        "kind": "repro.causal_trace",
        "version": FORMAT_VERSION,
        **tracer.to_dict(),
        "summary": tracer.summary(),
    }
    return json.dumps(doc, indent=2)


def chrome_trace_to_json(tracer: CausalTracer) -> str:
    """Export a causal tracer's hops as Chrome trace-event JSON.

    The result loads directly into ``chrome://tracing`` or Perfetto
    (trace-event array format; no ``kind`` envelope, by design).
    """
    return json.dumps(tracer.chrome_trace(), indent=2)


def explanation_to_json(explanation: PlanExplanation) -> str:
    """Serialize a plan explanation (as from ``plan(..., explain=True)``)."""
    doc = {
        "kind": "repro.explanation",
        "version": FORMAT_VERSION,
        **explanation.to_dict(),
    }
    return json.dumps(doc, indent=2)


def explanation_from_json(text: str) -> PlanExplanation:
    """Rebuild an explanation serialized by :func:`explanation_to_json`."""
    doc = _load(text, "repro.explanation", "explanation")
    return PlanExplanation.from_dict(doc)


# ----------------------------------------------------------------------
# Resilience: fault plans
# ----------------------------------------------------------------------
def fault_plan_to_json(plan) -> str:
    """Serialize a :class:`repro.resilience.faults.FaultPlan`."""
    doc = {
        "kind": "repro.fault_plan",
        "version": FORMAT_VERSION,
        **plan.to_dict(),
    }
    return json.dumps(doc, indent=2)


def fault_plan_from_json(text: str):
    """Rebuild a fault plan serialized by :func:`fault_plan_to_json`."""
    from repro.resilience.faults import FaultPlan

    doc = _load(text, "repro.fault_plan", "fault plan")
    return FaultPlan.from_dict(doc)


def telemetry_to_json(telemetry) -> str:
    """Serialize a telemetry envelope.

    Accepts a :class:`repro.obs.telemetry.Telemetry` pipeline or an
    already-built envelope dict; the ``repro.telemetry`` kind tag is
    part of the envelope itself.
    """
    doc = telemetry.envelope() if hasattr(telemetry, "envelope") else dict(telemetry)
    if doc.get("kind") != "repro.telemetry":
        raise ValueError(f"not a telemetry envelope: kind={doc.get('kind')!r}")
    return json.dumps(doc, indent=2, sort_keys=True)


def telemetry_from_json(text: str) -> dict[str, Any]:
    """Load and validate an envelope written by :func:`telemetry_to_json`."""
    from repro.obs.telemetry import envelope_from_json

    return envelope_from_json(json.loads(text))

