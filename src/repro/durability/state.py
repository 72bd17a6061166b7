"""Full-state capture/restore for the service and fleet control planes.

:func:`capture_service` / :func:`capture_fleet` walk every piece of
control-plane state that influences *future decisions* -- deployments,
operator/flow records, plan cache (in LRU order), admission queue,
parked queries (the resilience layer's and the resource manager's, with
its shed/readmit/infeasible counters), circuit breakers (including the
resilience RNG state),
EWMA estimators, migration cooldowns, fault-injector cursors, routing
tables, tenant accounting, scheduler backlogs and federation imports --
into one JSON-ready document.  :func:`restore_service` /
:func:`restore_fleet` assign it back into a *pristine* controller built
by the same deterministic factory, leaving the controller
epoch-consistent: cache keys still match ``(fingerprint,
statistics_epoch, topology_epoch)``, ads indexes are rebuilt with
``sync_from_state`` (which also revives federation-owned external-view
records), and the network/hierarchy are restored *in place* because
optimizers, engines and routing policies all hold references to the
same objects.

Capture is incremental.  The items of the big homogeneous lists --
deployments, operator records, flows, cached plans, federation imports
-- and the network section are captured as canonical-JSON text
:class:`~repro.durability.snapshot.Fragment` values, and a
:class:`FragmentMemo` carries each item's text from one snapshot to the
next for as long as everything the text reads is unchanged.  The small
sections with no identity or version to key on (hierarchy, resilience,
adaptivity, admission, rates, counters) are plain values, encoded at
every snapshot.  ``tests/durability/reference_capture.py`` keeps the
literal build-every-dict capture these functions are held to, byte for
byte.

Deliberately *not* captured: metric instrument values, telemetry
stores, causal traces and flight-recorder rings -- observability
output, not decision state.  The crash-equivalence digests in
:mod:`repro.durability.harness` exclude them for the same reason they
exclude wall-clock planning latencies.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.adaptive.stats import DriftEvent, EwmaEstimator, StreamDrift
from repro.durability.journal import canonical_json
from repro.durability.snapshot import Fragment
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import JoinPredicate, ViewSignature
from repro.query.stream import Filter, StreamSpec
from repro.resilience.policy import BreakerState, CircuitBreaker
from repro.serialization import _query_from_dict, _query_to_dict

STATE_VERSION = 1


class FragmentMemo:
    """Each captured item's canonical JSON text, kept between snapshots.

    Entries are keyed on the item's identity and hold the item, so an id
    is never another object's.  ``reads`` is whatever the text depends
    on that can change while the item stays the same object (nothing,
    for a frozen item): the kept text is handed back only while it
    compares equal.  A capture asks :meth:`text` for every live item;
    :meth:`roll` then drops the entries it did not ask for, so the memo
    is always one snapshot's items.
    """

    def __init__(self) -> None:
        self._kept: dict[int, tuple[Any, Any, str]] = {}
        self._touched: dict[int, tuple[Any, Any, str]] = {}
        self._encoded = 0

    def text(self, item: Any, reads: Any, to_doc, *args: Any) -> str:
        """``item``'s text: the kept one if what it read still holds,
        else ``to_doc(*args)`` encoded now."""
        entry = self._kept.get(id(item))
        if entry is None or entry[1] != reads:
            entry = (item, reads, canonical_json(to_doc(*args)))
            self._encoded += 1
        self._touched[id(item)] = entry
        return entry[2]

    def roll(self) -> int:
        """End one capture; returns how many items it had to encode."""
        self._kept, self._touched = self._touched, {}
        encoded, self._encoded = self._encoded, 0
        return encoded


def _array(texts) -> Fragment:
    return Fragment("[%s]" % ",".join(texts))


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of stats payloads to JSON-ready values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ----------------------------------------------------------------------
# Signatures, plans, placements, deployments
# ----------------------------------------------------------------------
def sig_to_doc(sig: ViewSignature) -> dict[str, Any]:
    """JSON document for a :class:`ViewSignature` (order-canonical)."""
    return {
        "sources": sorted(sig.sources),
        "predicates": sorted(
            (
                {
                    "left": p.left,
                    "right": p.right,
                    "selectivity": p.selectivity,
                    "left_attr": p.left_attr,
                    "right_attr": p.right_attr,
                }
                for p in sig.predicates
            ),
            key=lambda d: (d["left"], d["right"]),
        ),
        "filters": sorted(
            (
                {"stream": f.stream, "predicate": f.predicate, "selectivity": f.selectivity}
                for f in sig.filters
            ),
            key=lambda d: (d["stream"], d["predicate"]),
        ),
        "window": sig.window,
    }


def sig_from_doc(doc: dict[str, Any]) -> ViewSignature:
    """Inverse of :func:`sig_to_doc`."""
    return ViewSignature(
        sources=frozenset(doc["sources"]),
        predicates=frozenset(JoinPredicate(**p) for p in doc["predicates"]),
        filters=frozenset(Filter(**f) for f in doc["filters"]),
        window=doc["window"],
    )


def plan_to_doc(plan: PlanNode) -> dict[str, Any]:
    """JSON document for a plan tree."""
    if isinstance(plan, Leaf):
        return {"leaf": sorted(plan.view)}
    assert isinstance(plan, Join)
    return {"join": [plan_to_doc(plan.left), plan_to_doc(plan.right)]}


def plan_from_doc(doc: dict[str, Any]) -> PlanNode:
    """Inverse of :func:`plan_to_doc` (Join re-canonicalizes children)."""
    if "leaf" in doc:
        return Leaf(frozenset(doc["leaf"]))
    left, right = doc["join"]
    return Join(plan_from_doc(left), plan_from_doc(right))


def _placement_key(subtree: PlanNode) -> str:
    # Any two distinct subtrees of one plan cover distinct source sets
    # (children are disjoint, ancestors strict supersets), so the sorted
    # source names identify the subtree uniquely within its plan.
    return "|".join(sorted(subtree.sources))


def placement_to_doc(plan: PlanNode, placement: dict[PlanNode, int]) -> dict[str, int]:
    """``{source-set-label: node}`` for every subtree of ``plan``."""
    return {_placement_key(sub): placement[sub] for sub in plan.subtrees()}


def placement_from_doc(plan: PlanNode, doc: dict[str, int]) -> dict[PlanNode, int]:
    """Inverse of :func:`placement_to_doc` over ``plan``'s subtrees."""
    return {sub: doc[_placement_key(sub)] for sub in plan.subtrees()}


def deployment_to_doc(deployment) -> dict[str, Any]:
    """JSON document for a :class:`~repro.query.deployment.Deployment`."""
    return {
        "query": _query_to_dict(deployment.query),
        "plan": plan_to_doc(deployment.plan),
        "placement": placement_to_doc(deployment.plan, deployment.placement),
        "stats": _jsonable(dict(deployment.stats)),
    }


def deployment_from_doc(doc: dict[str, Any]):
    """Inverse of :func:`deployment_to_doc` (explanations are not kept)."""
    from repro.query.deployment import Deployment

    query = _query_from_dict(doc["query"])
    plan = plan_from_doc(doc["plan"])
    return Deployment(
        query=query,
        plan=plan,
        placement=placement_from_doc(plan, doc["placement"]),
        stats=dict(doc["stats"]),
    )


def _producer_to_doc(producer) -> dict[str, Any]:
    if producer[0] == "base":
        return {"base": producer[1], "node": producer[2]}
    return {"view": sig_to_doc(producer[1]), "node": producer[2]}


def _producer_from_doc(doc: dict[str, Any]):
    if "base" in doc:
        return ("base", doc["base"], doc["node"])
    return ("view", sig_from_doc(doc["view"]), doc["node"])


# ----------------------------------------------------------------------
# DeploymentState (operators, flows, deployments)
# ----------------------------------------------------------------------
def _origin_is_live(state, origin) -> bool:
    """Whether the installer of ``origin`` is still deployed."""
    if origin is None:
        return False
    live = state.deployment(origin[0].name)
    return live is not None and live.query is origin[0]


def _operator_to_doc(rec, installer_live: bool) -> dict[str, Any]:
    entry = {
        "sig": sig_to_doc(rec.signature),
        "node": rec.node,
        "rate": rec.rate,
        "queries": sorted(rec.queries),
    }
    if rec.origin is not None:
        query, left, right = rec.origin
        entry["origin"] = {
            # The installer is usually still deployed: name it instead of
            # repeating its query document.
            "query": query.name if installer_live else _query_to_dict(query),
            "left": sorted(left),
            "right": sorted(right),
        }
    return entry


def _flow_to_doc(flow) -> dict[str, Any]:
    return {
        "query": flow.query,
        "producer": _producer_to_doc(flow.producer),
        "dest": flow.dest,
        "rate": flow.rate,
    }


def capture_deployment_state(state, memo: FragmentMemo) -> dict[str, Any]:
    """Capture a :class:`~repro.query.deployment.DeploymentState`.

    Operator records are captured in *insertion order*: containment
    reuse (`find_reusable`) falls back to a linear scan, so the order
    operators were installed in is decision state.  A record's install
    ``origin`` is kept too -- it is what prices an operator that
    outlived its installer (:mod:`repro.resources.ledger`).

    An installed deployment and a flow never change, so their text is
    kept by identity.  An operator record's text also reads its rate,
    its holders and whether its installer is still deployed.
    """
    operators = []
    for rec in state.operator_records():
        live = _origin_is_live(state, rec.origin)
        reads = (rec.rate, frozenset(rec.queries), live)
        operators.append(memo.text(rec, reads, _operator_to_doc, rec, live))
    return {
        "deployments": _array(
            memo.text(d, None, deployment_to_doc, d) for d in state.deployments
        ),
        "operators": _array(operators),
        "flows": _array(memo.text(f, None, _flow_to_doc, f) for f in state.flows()),
    }


def restore_deployment_state(state, doc: dict[str, Any]) -> None:
    """Assign a captured document back into a pristine state object."""
    from repro.query.deployment import FlowEdge

    deployments = [deployment_from_doc(d) for d in doc["deployments"]]
    queries = {d.query.name: d.query for d in deployments}

    def origin_of(entry):
        origin = entry.get("origin")
        if origin is None:
            return None
        query = origin["query"]
        return (
            queries[query] if isinstance(query, str) else _query_from_dict(query),
            frozenset(origin["left"]),
            frozenset(origin["right"]),
        )

    state.restore(
        deployments,
        (
            (
                sig_from_doc(entry["sig"]),
                entry["node"],
                entry["rate"],
                entry["queries"],
                origin_of(entry),
            )
            for entry in doc["operators"]
        ),
        (
            FlowEdge(
                query=f["query"],
                producer=_producer_from_doc(f["producer"]),
                dest=f["dest"],
                rate=f["rate"],
            )
            for f in doc["flows"]
        ),
    )


# ----------------------------------------------------------------------
# Network / hierarchy / rates (shared infrastructure, restored in place)
# ----------------------------------------------------------------------
def capture_network(network, memo: FragmentMemo) -> Fragment:
    """Capture topology + version of a :class:`~repro.network.graph.Network`.

    Every mutator of the network bumps its version, so the text is kept
    for as long as the version stands.
    """
    return Fragment(memo.text(network, network._version, _network_to_doc, network))


def _network_to_doc(network) -> dict[str, Any]:
    return {
        "nodes": [
            {"id": node, "kind": network._node_kind.get(node, "")}
            for node in sorted(network._adj)
        ],
        "links": [
            {
                "u": link.u,
                "v": link.v,
                "cost": link.cost,
                "delay": link.delay,
                "bandwidth": None if link.bandwidth == float("inf") else link.bandwidth,
                "kind": link.kind,
            }
            for (_, _), link in sorted(network._links.items())
        ],
        "version": network._version,
    }


def restore_network(network, doc: dict[str, Any]) -> None:
    """Restore a network *in place* (everything holds references to it)."""
    from repro.network.graph import Link

    adj: dict[int, set[int]] = {n["id"]: set() for n in doc["nodes"]}
    kinds = {n["id"]: n["kind"] for n in doc["nodes"]}
    links = {}
    for entry in doc["links"]:
        link = Link(
            u=entry["u"],
            v=entry["v"],
            cost=entry["cost"],
            delay=entry["delay"],
            bandwidth=float("inf") if entry["bandwidth"] is None else entry["bandwidth"],
            kind=entry["kind"],
        )
        links[(link.u, link.v)] = link
        adj[link.u].add(link.v)
        adj[link.v].add(link.u)
    network._adj = adj
    network._node_kind = kinds
    network._links = links
    network._version = doc["version"]
    network._cost_cache = None
    network._delay_cache = None
    network._pred_cache = None


def capture_hierarchy(hierarchy) -> dict[str, Any]:
    """Capture the cluster tree, preserving each level's list order."""
    positions: dict[int, int] = {}
    for level_clusters in hierarchy.levels:
        for pos, cluster in enumerate(level_clusters):
            positions[id(cluster)] = pos

    def cluster_doc(cluster) -> dict[str, Any]:
        return {
            "level": cluster.level,
            "pos": positions[id(cluster)],
            "members": list(cluster.members),
            "coordinator": cluster.coordinator,
            "children": [
                [member, cluster_doc(child)]
                for member, child in cluster.children.items()
            ],
        }

    return {
        "max_cs": hierarchy.max_cs,
        "height": hierarchy.height,
        "root": cluster_doc(hierarchy.root),
    }


def restore_hierarchy(hierarchy, doc: dict[str, Any]) -> None:
    """Rebuild the cluster tree *in place* on the shared hierarchy."""
    from repro.hierarchy.hierarchy import Cluster

    def build(cdoc) -> Cluster:
        children = {m: build(d) for m, d in cdoc["children"]}
        cluster = Cluster(
            level=cdoc["level"],
            members=list(cdoc["members"]),
            coordinator=cdoc["coordinator"],
            children=children,
        )
        for child in children.values():
            child.parent = cluster
        return cluster

    root = build(doc["root"])
    by_level: dict[int, list] = {level: [] for level in range(1, doc["height"] + 1)}
    stack = [(doc["root"], root)]
    while stack:
        cdoc, cluster = stack.pop()
        by_level[cdoc["level"]].append((cdoc["pos"], cluster))
        for (_, child_doc), child in zip(cdoc["children"], cluster.children.values()):
            stack.append((child_doc, child))
    hierarchy.max_cs = doc["max_cs"]
    hierarchy.levels = [
        [cluster for _, cluster in sorted(by_level[level], key=lambda t: t[0])]
        for level in range(1, doc["height"] + 1)
    ]
    hierarchy.reindex()


def capture_rates(rates) -> dict[str, Any]:
    """Capture a :class:`~repro.core.cost.RateModel` (catalog + version)."""
    return {
        "streams": [
            {"name": spec.name, "source": spec.source, "rate": spec.rate}
            for spec in rates._streams.values()
        ],
        "version": rates._version,
        "reuse_rate_inflation": rates.reuse_rate_inflation,
    }


def restore_rates(rates, doc: dict[str, Any]) -> None:
    """Restore the shared rate model in place; clears the rate cache."""
    rates._streams = {
        s["name"]: StreamSpec(s["name"], s["source"], s["rate"])
        for s in doc["streams"]
    }
    rates.reuse_rate_inflation = doc["reuse_rate_inflation"]
    rates._version = doc["version"]
    rates._cache.clear()


# ----------------------------------------------------------------------
# RNG state
# ----------------------------------------------------------------------
def capture_rng(rng) -> dict[str, Any]:
    """The bit-generator state dict of a numpy Generator (JSON-safe)."""
    return rng.bit_generator.state


def restore_rng(rng, doc: dict[str, Any]) -> None:
    """Inverse of :func:`capture_rng`."""
    rng.bit_generator.state = doc


# ----------------------------------------------------------------------
# Service-layer components
# ----------------------------------------------------------------------
def _capture_admission(admission) -> dict[str, Any]:
    return {
        "queue": [_query_to_dict(q) for q in admission._queue],
        "enqueued_at": dict(admission._enqueued_at),
        "admitted_total": admission.admitted_total,
        "queued_total": admission.queued_total,
        "rejected_total": admission.rejected_total,
    }


def _restore_admission(admission, doc: dict[str, Any]) -> None:
    admission._queue = deque(_query_from_dict(d) for d in doc["queue"])
    admission._enqueued_at = dict(doc["enqueued_at"])
    admission.admitted_total = doc["admitted_total"]
    admission.queued_total = doc["queued_total"]
    admission.rejected_total = doc["rejected_total"]


def _cache_entry_to_doc(key, entry) -> dict[str, Any]:
    return {
        "fingerprint": key[0],
        "statistics_epoch": key[1],
        "topology_epoch": key[2],
        "plan": plan_to_doc(entry.plan),
        "placement": placement_to_doc(entry.plan, entry.placement),
        "planning_latency": entry.planning_latency,
        "stats": _jsonable(dict(entry.stats)),
    }


def _capture_cache(cache, memo: FragmentMemo) -> dict[str, Any]:
    return {
        # A cached plan is frozen; its text also reads the key it is under.
        "entries": _array(
            memo.text(entry, key, _cache_entry_to_doc, key, entry)
            for key, entry in cache._entries.items()  # LRU order
        ),
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "invalidations": cache.invalidations,
    }


def _restore_cache(cache, doc: dict[str, Any]) -> None:
    from repro.service.cache import CachedPlan

    entries = []
    for e in doc["entries"]:
        plan = plan_from_doc(e["plan"])
        key = (e["fingerprint"], e["statistics_epoch"], e["topology_epoch"])
        entries.append(
            (
                key,
                CachedPlan(
                    plan=plan,
                    placement=placement_from_doc(plan, e["placement"]),
                    planning_latency=e["planning_latency"],
                    stats=dict(e["stats"]),
                ),
            )
        )
    cache.restore(entries)
    cache.hits = doc["hits"]
    cache.misses = doc["misses"]
    cache.evictions = doc["evictions"]
    cache.invalidations = doc["invalidations"]


def _capture_resilience(control) -> dict[str, Any]:
    return {
        "parked": [
            {
                "name": name,
                "query": _query_to_dict(p.query),
                "lifetime": p.lifetime,
                "epoch": p.epoch,
                "reason": p.reason,
            }
            for name, p in control.parked.items()
        ],
        "quarantined": [[node, t] for node, t in sorted(control.quarantined.items())],
        "degraded": sorted(control.degraded_queries),
        "retries_total": control.retries_total,
        "fallbacks_total": control.fallbacks_total,
        "parked_total": control.parked_total,
        "quarantined_total": control.quarantined_total,
        "rng": capture_rng(control.rng),
        "breakers": [
            [
                node,
                {
                    "state": breaker.state.value,
                    "consecutive_failures": breaker.consecutive_failures,
                    "opened_at": breaker.opened_at,
                    "opened_count": breaker.opened_count,
                    "probes_in_flight": breaker._probes_in_flight,
                },
            ]
            for node, breaker in sorted(control.breakers._breakers.items())
        ],
    }


def _restore_resilience(control, doc: dict[str, Any]) -> None:
    from repro.resilience.degradation import ParkedQuery

    control.parked = {
        p["name"]: ParkedQuery(
            query=_query_from_dict(p["query"]),
            lifetime=p["lifetime"],
            epoch=p["epoch"],
            reason=p["reason"],
        )
        for p in doc["parked"]
    }
    control.quarantined = {node: t for node, t in doc["quarantined"]}
    control.degraded_queries = set(doc["degraded"])
    control.retries_total = doc["retries_total"]
    control.fallbacks_total = doc["fallbacks_total"]
    control.parked_total = doc["parked_total"]
    control.quarantined_total = doc["quarantined_total"]
    restore_rng(control.rng, doc["rng"])
    board = control.breakers
    board._breakers = {}
    for node, b in doc["breakers"]:
        breaker = CircuitBreaker(
            failure_threshold=board.failure_threshold,
            recovery_time=board.recovery_time,
            half_open_probes=board.half_open_probes,
        )
        breaker.state = BreakerState(b["state"])
        breaker.consecutive_failures = b["consecutive_failures"]
        breaker.opened_at = b["opened_at"]
        breaker.opened_count = b["opened_count"]
        breaker._probes_in_flight = b["probes_in_flight"]
        board._breakers[node] = breaker


def _capture_resources(manager) -> dict[str, Any]:
    return {
        "parked": [
            {
                "query": _query_to_dict(p.query),
                "lifetime": p.lifetime,
                "weight": p.weight,
                "reason": p.reason,
                "parked_at": p.parked_at,
                "shed": p.shed,
            }
            for p in manager.parked.values()
        ],
        "shed_total": manager.shed_total,
        "readmitted_total": manager.readmitted_total,
        "infeasible_total": manager.infeasible_total,
    }


def _restore_resources(manager, doc: dict[str, Any]) -> None:
    from repro.resources.shedder import ParkedQuery

    manager.parked = {}
    for p in doc["parked"]:
        query = _query_from_dict(p["query"])
        manager.parked[query.name] = ParkedQuery(
            query=query,
            lifetime=p["lifetime"],
            weight=p["weight"],
            reason=p["reason"],
            parked_at=p["parked_at"],
            shed=p["shed"],
        )
    manager.shed_total = doc["shed_total"]
    manager.readmitted_total = doc["readmitted_total"]
    manager.infeasible_total = doc["infeasible_total"]


def _capture_estimator(est: EwmaEstimator) -> dict[str, Any]:
    return {"alpha": est.alpha, "value": est.value, "samples": est.samples}


def _restore_estimator(doc: dict[str, Any]) -> EwmaEstimator:
    est = EwmaEstimator(doc["alpha"])
    est.value = doc["value"]
    est.samples = doc["samples"]
    return est


def _capture_monitor(monitor) -> dict[str, Any]:
    return {
        "estimators": [
            [name, _capture_estimator(est)]
            for name, est in monitor._estimators.items()
        ],
        "published": dict(monitor._published),
        "breaches": dict(monitor._breaches),
        "selectivities": [
            [sorted(pair), _capture_estimator(est)]
            for pair, est in monitor._selectivities.items()
        ],
        "last_publish": monitor._last_publish,
        "samples_total": monitor.samples_total,
        "events": [
            {
                "time": ev.time,
                "rates_version": ev.rates_version,
                "drifts": [
                    {"stream": d.stream, "published": d.published, "observed": d.observed}
                    for d in ev.drifts
                ],
            }
            for ev in monitor.events
        ],
    }


def _restore_monitor(monitor, doc: dict[str, Any]) -> None:
    monitor._estimators = {
        name: _restore_estimator(e) for name, e in doc["estimators"]
    }
    monitor._published = dict(doc["published"])
    monitor._breaches = dict(doc["breaches"])
    monitor._selectivities = {
        frozenset(pair): _restore_estimator(e) for pair, e in doc["selectivities"]
    }
    monitor._last_publish = doc["last_publish"]
    monitor.samples_total = doc["samples_total"]
    monitor.events = [
        DriftEvent(
            time=ev["time"],
            drifts=[StreamDrift(**d) for d in ev["drifts"]],
            rates_version=ev["rates_version"],
        )
        for ev in doc["events"]
    ]


def _capture_adaptivity(loop) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "last_migration": dict(loop._last_migration),
        "dirty": loop._dirty,
        "seen_topology": loop._seen_topology,
        "evaluations": loop.policy.evaluations if loop.policy is not None else 0,
        "monitor": _capture_monitor(loop.monitor) if loop.monitor is not None else None,
    }
    return doc


def _restore_adaptivity(loop, doc: dict[str, Any]) -> None:
    loop._last_migration = dict(doc["last_migration"])
    loop._dirty = doc["dirty"]
    loop._seen_topology = doc["seen_topology"]
    if loop.policy is not None:
        loop.policy.evaluations = doc["evaluations"]
    if loop.monitor is not None and doc["monitor"] is not None:
        _restore_monitor(loop.monitor, doc["monitor"])


def _capture_faults(injector) -> dict[str, Any] | None:
    if not getattr(injector, "enabled", False):
        return None
    return {
        "crashed": sorted(injector.crashed),
        "cursor": injector._cursor,
        "applied": _jsonable(list(injector.applied)),
        "messages_dropped": injector.messages_dropped,
        "messages_delayed": injector.messages_delayed,
        "messages_duplicated": injector.messages_duplicated,
        "rng": capture_rng(injector.rng),
    }


def _restore_faults(injector, doc: dict[str, Any] | None) -> None:
    if doc is None or not getattr(injector, "enabled", False):
        return
    injector.crashed = set(doc["crashed"])
    injector._cursor = doc["cursor"]
    injector.applied = list(doc["applied"])
    injector.messages_dropped = doc["messages_dropped"]
    injector.messages_delayed = doc["messages_delayed"]
    injector.messages_duplicated = doc["messages_duplicated"]
    restore_rng(injector.rng, doc["rng"])


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
def capture_service(
    service, memo: FragmentMemo, include_shared: bool = True
) -> dict[str, Any]:
    """Capture one :class:`~repro.service.service.StreamQueryService`.

    With ``include_shared`` (standalone services) the shared
    network/rates/hierarchy are embedded; fleet capture sets it False
    and captures them once at fleet scope instead.  The document holds
    fragments: encode it with
    :func:`~repro.durability.snapshot.splice_json`.
    """
    doc: dict[str, Any] = {
        "version": STATE_VERSION,
        "clock": service.engine.clock,
        "statistics_epoch": service.statistics_epoch,
        "topology_epoch": service.topology_epoch,
        "rates_version_seen": service._rates_version,
        "network_version_seen": service._network_version,
        "priced_version": service.engine._priced_version,
        "expiry": dict(service._expiry),
        "pending_lifetimes": dict(service._pending_lifetimes),
        "counters": {
            "submitted_total": service.submitted_total,
            "deployed_total": service.deployed_total,
            "retired_total": service.retired_total,
            "plans_computed": service.plans_computed,
            "planning_seconds": service.planning_seconds,
        },
        "admission": _capture_admission(service.admission),
        "cache": _capture_cache(service.cache, memo),
        "state": capture_deployment_state(service.engine.state, memo),
        "resilience": (
            _capture_resilience(service.resilience)
            if service.resilience is not None
            else None
        ),
        "adaptivity": (
            _capture_adaptivity(service.adaptivity)
            if service.adaptivity is not None
            else None
        ),
        "faults": _capture_faults(service.faults),
    }
    if service.resources is not None:
        # Only when the layer is armed: every other snapshot is unchanged.
        doc["resources"] = _capture_resources(service.resources)
    if include_shared:
        doc["network"] = capture_network(service.network, memo)
        doc["rates"] = capture_rates(service.rates)
        doc["hierarchy"] = (
            capture_hierarchy(service.hierarchy)
            if service.hierarchy is not None
            else None
        )
    return doc


def restore_service(service, doc: dict[str, Any], include_shared: bool = True) -> None:
    """Restore a captured service document into a pristine service.

    The service must have been built by the same deterministic factory
    (same optimizer/config/seeds); only the mutable state is assigned.
    """
    if include_shared:
        restore_network(service.network, doc["network"])
        restore_rates(service.rates, doc["rates"])
        if doc.get("hierarchy") is not None and service.hierarchy is not None:
            restore_hierarchy(service.hierarchy, doc["hierarchy"])
    service.engine.clock = doc["clock"]
    service.statistics_epoch = doc["statistics_epoch"]
    service.topology_epoch = doc["topology_epoch"]
    service._rates_version = doc["rates_version_seen"]
    service._network_version = doc["network_version_seen"]
    service._expiry = dict(doc["expiry"])
    service._pending_lifetimes = dict(doc["pending_lifetimes"])
    counters = doc["counters"]
    service.submitted_total = counters["submitted_total"]
    service.deployed_total = counters["deployed_total"]
    service.retired_total = counters["retired_total"]
    service.plans_computed = counters["plans_computed"]
    service.planning_seconds = counters["planning_seconds"]
    _restore_admission(service.admission, doc["admission"])
    _restore_cache(service.cache, doc["cache"])
    restore_deployment_state(service.engine.state, doc["state"])
    # Re-price flows against the (restored) network and adopt the priced
    # version the snapshot recorded, keeping epoch bookkeeping exact.
    service.engine.state.recompute_costs(service.network.cost_matrix())
    service.engine._priced_version = doc["priced_version"]
    if service.resilience is not None and doc["resilience"] is not None:
        _restore_resilience(service.resilience, doc["resilience"])
    if service.adaptivity is not None and doc["adaptivity"] is not None:
        _restore_adaptivity(service.adaptivity, doc["adaptivity"])
    _restore_faults(service.faults, doc["faults"])
    if service.resources is not None and doc.get("resources") is not None:
        _restore_resources(service.resources, doc["resources"])
    # Ads indexes are derived state: base advertisements were recreated
    # by the factory; view/federation records rebuild from deployments.
    if service.ads is not None:
        service.ads.sync_from_state(service.engine.state)


# ----------------------------------------------------------------------
# Fleet
# ----------------------------------------------------------------------
def _import_to_doc(key) -> dict[str, Any]:
    sig, node = key
    return {"sig": sig_to_doc(sig), "node": node}


def capture_fleet(fleet, memo: FragmentMemo) -> dict[str, Any]:
    """Capture a :class:`~repro.fleet.controller.FleetController`.

    Like :func:`capture_service`, the document holds fragments.
    """
    scheduler_doc = None
    if fleet.scheduler is not None:
        scheduler_doc = {
            "queues": [
                [
                    tenant,
                    [
                        {
                            "query": _query_to_dict(p.query),
                            "lifetime": p.lifetime,
                            "shard": p.shard,
                        }
                        for p in queue
                    ],
                ]
                for tenant, queue in fleet.scheduler._queues.items()
            ],
            "credit": dict(fleet.scheduler._credit),
            "enqueued_total": fleet.scheduler.enqueued_total,
            "picked_total": fleet.scheduler.picked_total,
        }
    federation_doc = None
    if fleet.federation is not None:
        from repro.fleet.federation import import_rank

        federation_doc = {
            "epoch": fleet.federation.epoch,
            "syncs": fleet.federation.syncs,
            "imported_total": fleet.federation.imported_total,
            "withdrawn_total": fleet.federation.withdrawn_total,
            "promoted_total": fleet.federation.promoted_total,
            # An import is a (signature, node) tuple the federation keeps
            # for as long as the import stands: its text goes by identity.
            "imports": [
                _array(
                    memo.text(key, None, _import_to_doc, key)
                    for key in sorted(
                        fleet.federation.imports(sid),
                        # The sources first, as written since the section
                        # exists ("|" and the rank's "*" sort stream names
                        # that prefix one another differently); the
                        # rank settles what that leaves tied.
                        key=lambda key: (
                            "|".join(sorted(key[0].sources)),
                            import_rank(key),
                        ),
                    )
                )
                for sid in range(len(fleet.shards))
            ],
        }
    policy = fleet.router.policy
    policy_doc = None
    if hasattr(policy, "_shard_of_key"):
        policy_doc = [
            [level, coordinator, shard]
            for (level, coordinator), shard in sorted(policy._shard_of_key.items())
        ]
    return {
        "version": STATE_VERSION,
        "scope": "fleet",
        "clock": fleet.clock,
        "network": capture_network(fleet.network, memo),
        "rates": capture_rates(fleet.rates),
        "hierarchy": capture_hierarchy(fleet.hierarchy),
        "shards": [
            capture_service(shard, memo, include_shared=False)
            for shard in fleet.shards
        ],
        "router": {
            "owner": dict(fleet.router._owner),
            "routed_total": fleet.router.routed_total,
            "policy_keys": policy_doc,
        },
        "tenants": {
            "tenant_of": dict(fleet._tenant_of),
            "tenant_live": dict(fleet._tenant_live),
            "tenant_charge": dict(fleet._tenant_charge),
            # Per-tenant accounting counters live in the metric registry;
            # tenant_summary() reports them, so recovery must carry them.
            "instruments": {
                tenant: {
                    name: inst.total
                    for name, inst in instruments.items()
                    if hasattr(inst, "total")
                }
                for tenant, instruments in fleet._tenant_instruments.items()
            },
        },
        "scheduler": scheduler_doc,
        "counters": {
            "submitted_total": fleet.submitted_total,
            "rebalances_total": fleet.rebalances_total,
            "cross_shard_reuse_total": fleet.cross_shard_reuse_total,
        },
        "federation": federation_doc,
    }


def restore_fleet(fleet, doc: dict[str, Any]) -> None:
    """Restore a captured fleet document into a pristine fleet."""
    from repro.fleet.controller import _PendingSubmit

    restore_network(fleet.network, doc["network"])
    restore_rates(fleet.rates, doc["rates"])
    restore_hierarchy(fleet.hierarchy, doc["hierarchy"])
    fleet.clock = doc["clock"]
    for shard, shard_doc in zip(fleet.shards, doc["shards"]):
        restore_service(shard, shard_doc, include_shared=False)
    fleet.router._owner = {
        name: shard for name, shard in doc["router"]["owner"].items()
    }
    fleet.router.routed_total = doc["router"]["routed_total"]
    if doc["router"]["policy_keys"] is not None and hasattr(
        fleet.router.policy, "_shard_of_key"
    ):
        fleet.router.policy._shard_of_key = {
            (level, coordinator): shard
            for level, coordinator, shard in doc["router"]["policy_keys"]
        }
    tenants = doc["tenants"]
    fleet._tenant_of = dict(tenants["tenant_of"])
    fleet._tenant_live = dict(tenants["tenant_live"])
    fleet._tenant_charge = dict(tenants["tenant_charge"])
    for tenant, totals in tenants.get("instruments", {}).items():
        instruments = fleet._tenant_instruments.get(tenant, {})
        for name, total in totals.items():
            inst = instruments.get(name)
            if inst is not None and hasattr(inst, "sync_total"):
                inst.sync_total(total, time=fleet.clock)
    if fleet.scheduler is not None and doc["scheduler"] is not None:
        sched = doc["scheduler"]
        fleet.scheduler._queues = {
            tenant: deque(
                _PendingSubmit(
                    query=_query_from_dict(p["query"]),
                    lifetime=p["lifetime"],
                    shard=p["shard"],
                )
                for p in queue
            )
            for tenant, queue in sched["queues"]
        }
        fleet.scheduler._credit = dict(sched["credit"])
        fleet.scheduler.enqueued_total = sched["enqueued_total"]
        fleet.scheduler.picked_total = sched["picked_total"]
    counters = doc["counters"]
    fleet.submitted_total = counters["submitted_total"]
    fleet.rebalances_total = counters["rebalances_total"]
    fleet.cross_shard_reuse_total = counters["cross_shard_reuse_total"]
    if fleet.federation is not None and doc["federation"] is not None:
        fed = doc["federation"]
        fleet.federation.epoch = fed["epoch"]
        fleet.federation.syncs = fed["syncs"]
        fleet.federation.imported_total = fed["imported_total"]
        fleet.federation.withdrawn_total = fed["withdrawn_total"]
        fleet.federation.promoted_total = fed["promoted_total"]
        fleet.federation.restore_imports(
            [
                {(sig_from_doc(e["sig"]), e["node"]) for e in imports}
                for imports in fed["imports"]
            ]
        )
