"""The literal capture the incremental one is checked against.

This is ``repro.durability.state``'s capture as it was before snapshots
learned to keep text fragments: every snapshot turns every deployment,
operator record, flow, cached plan and import into dicts again, and
:func:`snapshot_bytes` runs the whole envelope through ``json.dumps``.
It keeps nothing between calls, so it is right by construction whatever
happened since the last snapshot -- and O(live) per call, which is why
the shipped capture only works this way for the first snapshot of a
process.

The per-value documents (signatures, plans, placements, deployments,
producers) and the hierarchy's section are the shipped functions: they
are formats ``repro.durability.state`` still owns.  The network's, the
rate model's and the plan cache's sections, the RNG state and the
layers' sections (admission, resilience, adaptivity, resources, faults,
and the fleet's scheduler, router, tenants and federation) are encoded
here from the owners' private fields, the way the shipped codec did
before each owner got its own ``capture()`` -- so an owner's
``capture()`` is checked against what it replaced, not against itself.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

from repro.adaptive.stats import EwmaEstimator
from repro.durability.snapshot import SNAPSHOT_KIND, SNAPSHOT_VERSION
from repro.durability.state import (
    STATE_VERSION,
    _producer_to_doc,
    capture_hierarchy,
    deployment_to_doc,
    placement_to_doc,
    plan_to_doc,
    sig_to_doc,
)
from repro.serialization import _query_to_dict, jsonable
from tests.fleet.reference_federation import imports_of


def canonical_json(doc: Any) -> str:
    """Canonical (sorted-keys, no-whitespace) JSON."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def snapshot_bytes(lsn: int, scope: str, state: dict[str, Any], time: float) -> bytes:
    """The file a :class:`SnapshotWriter` with nothing to refer to writes
    for a plain-dict ``state``."""
    body = canonical_json(
        {
            "kind": SNAPSHOT_KIND,
            "version": SNAPSHOT_VERSION,
            "lsn": lsn,
            "scope": scope,
            "time": time,
            "state": state,
        }
    ).encode("utf-8")
    return b'{"crc":%d,' % zlib.crc32(body) + body[1:] + b"\n"


def references(doc: Any) -> list[dict[str, Any]]:
    """The ``{"at", "crc", "lsn"}`` of every reference in a snapshot
    document as ``json.loads`` reads it, in document order."""
    if isinstance(doc, dict):
        ref = doc.get("$ref") if len(doc) == 1 else None
        if isinstance(ref, dict) and ref.keys() == {"at", "crc", "lsn"}:
            return [ref]
        doc = list(doc.values())
    if isinstance(doc, list):
        return [ref for value in doc for ref in references(value)]
    return []


def _origin_to_doc(state, origin) -> dict[str, Any]:
    query, left, right = origin
    live = state.deployment(query.name)
    return {
        # The installer is usually still deployed (the same query, or
        # an equal copy of it): name it instead of repeating its query
        # document.
        "query": (
            query.name
            if live is not None and _query_to_dict(live.query) == _query_to_dict(query)
            else _query_to_dict(query)
        ),
        "left": sorted(left),
        "right": sorted(right),
    }


def capture_deployment_state(state) -> dict[str, Any]:
    """Capture a :class:`~repro.query.deployment.DeploymentState`.

    Operator records are captured in *insertion order*: containment
    reuse (`find_reusable`) falls back to a linear scan, so the order
    operators were installed in is decision state.  A record's install
    ``origin`` is kept too -- it is what prices an operator that
    outlived its installer (:mod:`repro.resources.ledger`).
    """
    operators = []
    for rec in state.operator_records():
        entry = {
            "sig": sig_to_doc(rec.signature),
            "node": rec.node,
            "rate": rec.rate,
            "queries": sorted(rec.queries),
        }
        if rec.origin is not None:
            entry["origin"] = _origin_to_doc(state, rec.origin)
        operators.append(entry)
    return {
        "deployments": [deployment_to_doc(d) for d in state.deployments],
        "operators": operators,
        "flows": [
            {
                "query": f.query,
                "producer": _producer_to_doc(f.producer),
                "dest": f.dest,
                "rate": f.rate,
            }
            for f in state.flows()
        ],
    }



def capture_network(network) -> dict[str, Any]:
    """Capture topology + version of a :class:`~repro.network.graph.Network`."""
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



def _capture_cache(cache) -> dict[str, Any]:
    return {
        "entries": [
            {
                "fingerprint": key[0],
                "statistics_epoch": key[1],
                "topology_epoch": key[2],
                "plan": plan_to_doc(entry.plan),
                "placement": placement_to_doc(entry.plan, entry.placement),
                "stats": jsonable(dict(entry.stats)),
            }
            for key, entry in cache._entries.items()  # LRU order
        ],
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "invalidations": cache.invalidations,
    }



# ----------------------------------------------------------------------
# The layers' sections, as ``repro.durability.state`` encoded them from
# outside before each layer wrote its own (a reference may read private
# fields; the shipped codec may not)
# ----------------------------------------------------------------------
def _capture_admission(admission) -> dict[str, Any]:
    return {
        "queue": [_query_to_dict(q) for q in admission._queue],
        "enqueued_at": dict(admission._enqueued_at),
        "admitted_total": admission.admitted_total,
        "queued_total": admission.queued_total,
        "rejected_total": admission.rejected_total,
    }


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
        "rng": control.rng.bit_generator.state,
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


def _capture_resources(manager) -> dict[str, Any]:
    return {
        "parked": [
            {
                "query": _query_to_dict(p.query),
                "lifetime": p.lifetime,
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


def _capture_estimator(est: EwmaEstimator) -> dict[str, Any]:
    return {"alpha": est.alpha, "value": est.value}


def _capture_monitor(monitor) -> dict[str, Any]:
    return {
        "estimators": [
            [name, _capture_estimator(est)]
            for name, est in monitor._estimators.items()
        ],
        "published": dict(monitor._published),
        "breaches": dict(monitor._breaches),
        "last_publish": monitor._last_publish,
        "publications": monitor.publications,
        "streams_published": monitor.streams_published,
    }


def _capture_adaptivity(loop) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "last_migration": dict(loop._last_migration),
        "dirty": loop._dirty,
        "aborted": sorted(loop._aborted),
        "seen_topology": loop._seen_topology,
        "evaluations": loop.policy.evaluations if loop.policy is not None else 0,
        "totals": {
            name: loop.totals[name]
            for name in (
                "migrations_committed", "migrations_aborted", "operators_moved",
                "state_bytes_moved", "cost_saving",
            )
        },
        "monitor": _capture_monitor(loop.monitor) if loop.monitor is not None else None,
    }
    return doc


def _capture_faults(injector) -> dict[str, Any] | None:
    if not getattr(injector, "enabled", False):
        return None
    return {
        "crashed": sorted(injector.crashed),
        "cursor": injector._cursor,
        "applied": jsonable(list(injector.applied)),
    }


def capture_service(service, include_shared: bool = True) -> dict[str, Any]:
    """Capture one :class:`~repro.service.service.StreamQueryService`.

    With ``include_shared`` (standalone services) the shared
    network/rates/hierarchy are embedded; fleet capture sets it False
    and captures them once at fleet scope instead.
    """
    doc: dict[str, Any] = {
        "version": STATE_VERSION,
        "clock": service.engine.clock,
        "statistics_epoch": service.statistics_epoch,
        "topology_epoch": service.topology_epoch,
        "rates_version_seen": service._rates_version,
        "network_version_seen": service._network_version,
        "priced_version": service.engine._priced_version,
        "expiry": [[name, expiry] for name, expiry in service._expiry.items()],
        "pending_lifetimes": dict(service._pending_lifetimes),
        "counters": {
            "submitted_total": service.submitted_total,
            "deployed_total": service.deployed_total,
            "retired_total": service.retired_total,
            "plans_computed": service.plans_computed,
            "plans_examined": service.plans_examined,
        },
        "admission": _capture_admission(service.admission),
        "cache": _capture_cache(service.cache),
        "state": capture_deployment_state(service.engine.state),
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
        doc["resources"] = _capture_resources(service.resources)
    if include_shared:
        doc["network"] = capture_network(service.network)
        doc["rates"] = capture_rates(service.rates)
        doc["hierarchy"] = (
            capture_hierarchy(service.hierarchy)
            if service.hierarchy is not None
            else None
        )
    return doc



def _view_rank(d: dict) -> tuple:
    """The order the federation lists view keys in, on their documents."""
    return (
        "|".join(d["sig"]["sources"]),
        d["node"],
        [list(f.values()) for f in d["sig"]["filters"]],
        [list(p.values()) for p in d["sig"]["predicates"]],
        d["sig"]["window"],
    )


def capture_fleet(fleet) -> dict[str, Any]:
    """Capture a :class:`~repro.fleet.controller.FleetController`."""
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
        federation_doc = {
            "epoch": fleet.federation.epoch,
            "syncs": fleet.federation.syncs,
            "imported_total": fleet.federation.imported_total,
            "withdrawn_total": fleet.federation.withdrawn_total,
            "promoted_total": fleet.federation.promoted_total,
            "imports": [
                sorted(
                    (
                        {"sig": sig_to_doc(sig), "node": node}
                        for sig, node in imports_of(fleet.federation, sid)
                    ),
                    key=_view_rank,
                )
                for sid in range(len(fleet.shards))
            ],
            "published": sorted(
                (
                    {
                        "view": {"sig": sig_to_doc(sig), "node": node},
                        "offered": sorted(entry.offered),
                        "rate": entry.rate,
                    }
                    for (sig, node), entry in fleet.federation.published().items()
                ),
                key=lambda d: _view_rank(d["view"]),
            ),
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
        "network": capture_network(fleet.network),
        "rates": capture_rates(fleet.rates),
        "hierarchy": capture_hierarchy(fleet.hierarchy),
        "shards": [
            capture_service(shard, include_shared=False) for shard in fleet.shards
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
            "tenant_totals": {
                tenant: {
                    "submitted": totals["submitted"],
                    "admitted": totals["admitted"],
                    "rejected": totals["rejected"],
                }
                for tenant, totals in fleet._tenant_totals.items()
            },
        },
        "scheduler": scheduler_doc,
        "counters": {
            "submitted_total": fleet.submitted_total,
            "admitted_total": fleet.admitted_total,
            "rejected_total": fleet.rejected_total,
            "rebalances_total": fleet.rebalances_total,
            "cross_shard_reuse_total": fleet.cross_shard_reuse_total,
        },
        "federation": federation_doc,
    }
