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
producers) and the small sections that are still encoded at every
snapshot (admission, resilience, adaptivity, resources, faults, rates,
hierarchy)
are the shipped functions: the incremental capture did not change them.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

from repro.durability.snapshot import SNAPSHOT_KIND, SNAPSHOT_VERSION
from repro.durability.state import (
    STATE_VERSION,
    _capture_adaptivity,
    _capture_admission,
    _capture_faults,
    _capture_resilience,
    _capture_resources,
    _jsonable,
    _producer_to_doc,
    capture_hierarchy,
    capture_rates,
    deployment_to_doc,
    placement_to_doc,
    plan_to_doc,
    sig_to_doc,
)
from repro.serialization import _query_to_dict


def canonical_json(doc: Any) -> str:
    """Canonical (sorted-keys, no-whitespace) JSON."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def snapshot_bytes(lsn: int, scope: str, state: dict[str, Any], time: float) -> bytes:
    """The file ``write_snapshot`` writes for a plain-dict ``state``."""
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


def _origin_to_doc(state, origin) -> dict[str, Any]:
    query, left, right = origin
    live = state.deployment(query.name)
    return {
        # The installer is usually still deployed: name it instead of
        # repeating its query document.
        "query": (
            query.name
            if live is not None and live.query is query
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



def _capture_cache(cache) -> dict[str, Any]:
    return {
        "entries": [
            {
                "fingerprint": key[0],
                "statistics_epoch": key[1],
                "topology_epoch": key[2],
                "plan": plan_to_doc(entry.plan),
                "placement": placement_to_doc(entry.plan, entry.placement),
                "planning_latency": entry.planning_latency,
                "stats": _jsonable(dict(entry.stats)),
            }
            for key, entry in cache._entries.items()  # LRU order
        ],
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "invalidations": cache.invalidations,
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
                        for sig, node in fleet.federation.imports(sid)
                    ),
                    key=lambda d: (
                        "|".join(d["sig"]["sources"]),
                        d["node"],
                        [list(f.values()) for f in d["sig"]["filters"]],
                        [list(p.values()) for p in d["sig"]["predicates"]],
                        d["sig"]["window"],
                    ),
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
