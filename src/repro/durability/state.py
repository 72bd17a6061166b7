"""The ``repro.state`` document: value formats, core structures, one loop.

A snapshot holds every piece of control-plane state that influences
*future decisions*.  Every layer and both controllers write and read
**their own section** with one pair of methods, ``capture() -> dict |
None`` and ``restore(doc)``, next to the fields the section describes
(``docs/durability.md`` has the table); :func:`capture_service` /
:func:`capture_fleet` walk ``controller.layers()``.  The network and
the rate model every layer stands on own their sections the same way
(:meth:`~repro.network.graph.Network.capture`,
:meth:`~repro.core.cost.RateModel.capture`), and nothing here reads a
private field of another object.  This module keeps the **formats** the
sections share (signature, plan, placement, deployment, operator, flow
and view-key documents) and the codecs of the deployment state, the
plan cache (its public entries, in LRU order) and the hierarchy.

:func:`restore_service` / :func:`restore_fleet` assign a document back
into a *pristine* controller built by the same deterministic factory,
leaving it epoch-consistent: cache keys still match ``(fingerprint,
statistics_epoch, topology_epoch)``, ads indexes are rebuilt with
``sync_from_state`` (which also revives federation-owned external-view
records), and the network/hierarchy are restored *in place* because
optimizers, engines and routing policies hold references to them.  A
document whose layer sections do not fit the layers the controller arms
is refused (:func:`restore_section`).

Capture is incremental: the items of the long homogeneous lists
(deployments, operator records, flows, cached plans, federation imports)
and the network section are canonical-JSON text
:class:`~repro.durability.snapshot.Fragment` values, and a
:class:`FragmentMemo` carries each item's text from one snapshot to the
next while everything the text reads is unchanged, and a whole section
while its owner's revision stands: the deployment state, the plan
cache's entries, and as text the hierarchy, the rates and each layer's
(the federation's imports go item by item).
The captures name each section fragment's place in the document, where
a snapshot may refer to an older one (:mod:`repro.durability.snapshot`).
``tests/durability/reference_capture.py`` keeps the literal
build-every-dict capture, layer sections included, that all of this is
held to byte for byte.  Registry counters need no section: each reads
a total one of the sections carries, so it reads the same after a
restore, except the durability layer's own process counters
(:data:`repro.obs.timeseries.PROCESS_SERIES`).  Not captured, on
purpose: gauge and histogram values, telemetry stores, causal traces
and flight-recorder rings (:meth:`repro.obs.telemetry.Telemetry.capture`
says why).
"""

from __future__ import annotations

from typing import Any

from repro.durability.journal import canonical_json
from repro.durability.snapshot import Fragment
from repro.errors import StateMismatchError
from repro.hierarchy.hierarchy import Cluster
from repro.query.plan import Join, Leaf, PlanNode
from repro.query.query import JoinPredicate, ViewSignature
from repro.query.stream import Filter
from repro.serialization import (
    _query_from_dict,
    _query_to_dict,
    filter_to_dict,
    jsonable,
    predicate_to_dict,
)

STATE_VERSION = 1


class FragmentMemo:
    """Each captured item's canonical JSON text, kept between snapshots.

    Entries are keyed on the item's identity and hold the item, so an id
    is never another object's.  ``reads`` is whatever the text depends
    on that can change while the item stays the same object (nothing,
    for a frozen item): the kept text is handed back only while it
    compares equal.  A capture asks :meth:`text` for every live item;
    :meth:`roll` then drops the entries it did not ask for, so the memo
    is always one snapshot's items.  :meth:`section` keeps a whole
    section the same way, keyed on its owner.
    """

    def __init__(self) -> None:
        self._kept: dict[int, tuple[Any, Any, str]] = {}
        self._touched: dict[int, tuple[Any, Any, str]] = {}
        # owner id -> (owner, reads, section, the item entries it holds)
        self._sections: dict[int, tuple[Any, Any, Any, dict]] = {}
        self._sections_touched: dict[int, tuple[Any, Any, Any, dict]] = {}
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

    def array(self, items, to_doc) -> Fragment:
        """A JSON array of frozen ``items``, each one's text by identity."""
        return _array(self.text(item, None, to_doc, item) for item in items)

    def section(self, owner: Any, reads: Any, build, *args: Any) -> Any:
        """``owner``'s section: the kept one while ``reads`` still
        compares equal, else ``build(*args)`` now.

        A kept section carries its items' entries over whole, and only
        its next build looks them up: that build re-encodes what moved.
        """
        kept = self._sections.get(id(owner))
        if kept is None or kept[1] != reads:
            outer = self._kept, self._touched
            self._kept, self._touched = {} if kept is None else kept[3], {}
            try:
                kept = (owner, reads, build(*args), self._touched)
            finally:
                self._kept, self._touched = outer
        self._sections_touched[id(owner)] = kept
        return kept[2]

    def roll(self) -> int:
        """End one capture; returns how many items it had to encode."""
        self._kept, self._touched = self._touched, {}
        self._sections, self._sections_touched = self._sections_touched, {}
        encoded, self._encoded = self._encoded, 0
        return encoded


def _array(texts) -> Fragment:
    return Fragment("[%s]" % ",".join(texts))


def _fragment(to_doc, *args: Any) -> Fragment:
    return Fragment(canonical_json(to_doc(*args)))


# ----------------------------------------------------------------------
# Signatures, plans, placements, deployments
# ----------------------------------------------------------------------
def sig_to_doc(sig: ViewSignature) -> dict[str, Any]:
    """JSON document for a :class:`ViewSignature` (order-canonical)."""
    return {
        "sources": sorted(sig.sources),
        "predicates": sorted(
            map(predicate_to_dict, sig.predicates), key=lambda d: (d["left"], d["right"])
        ),
        "filters": sorted(
            map(filter_to_dict, sig.filters), key=lambda d: (d["stream"], d["predicate"])
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
        "stats": jsonable(dict(deployment.stats)),
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


def view_key_to_doc(key) -> dict[str, Any]:
    """JSON document for a ``(signature, node)`` view key."""
    sig, node = key
    return {"sig": sig_to_doc(sig), "node": node}


def view_key_from_doc(doc: dict[str, Any]):
    """Inverse of :func:`view_key_to_doc`."""
    return (sig_from_doc(doc["sig"]), doc["node"])


# ----------------------------------------------------------------------
# DeploymentState (operators, flows, deployments)
# ----------------------------------------------------------------------
def _origin_is_live(state, origin) -> bool:
    """Whether the installer of ``origin`` is still deployed: a live
    query of its name and content (most often the very same object; a
    recovered or rebalanced query is an equal copy)."""
    if origin is None:
        return False
    live = state.deployment(origin[0].name)
    return live is not None and (
        live.query is origin[0]
        or _query_to_dict(live.query) == _query_to_dict(origin[0])
    )


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

    The whole section is kept while the state's ``revision`` stands:
    every mutator bumps it, and nothing outside the state mutates its
    records, flows or deployments.  Once it moved, an installed
    deployment and a flow never change, so their text is kept by
    identity; an operator record's text also reads its rate, its
    holders and whether its installer is still deployed.
    """
    return memo.section(state, state.revision, _deployment_state_doc, state, memo)


def _deployment_state_doc(state, memo: FragmentMemo) -> dict[str, Any]:
    operators = []
    for rec in state.operator_records():
        live = _origin_is_live(state, rec.origin)
        reads = (rec.rate, frozenset(rec.queries), live)
        operators.append(memo.text(rec, reads, _operator_to_doc, rec, live))
    return {
        "deployments": memo.array(state.deployments, deployment_to_doc),
        "operators": _array(operators),
        "flows": memo.array(state.flows(), _flow_to_doc),
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
# Hierarchy (shared infrastructure, restored in place)
# ----------------------------------------------------------------------
def capture_hierarchy(hierarchy) -> dict[str, Any]:
    """Capture the cluster tree, preserving each level's list order."""
    positions: dict[int, int] = {}
    for level_clusters in hierarchy.levels:
        for pos, cluster in enumerate(level_clusters):
            positions[id(cluster)] = pos

    return {
        "max_cs": hierarchy.max_cs,
        "height": hierarchy.height,
        "root": _cluster_doc(hierarchy.root, positions),
    }


def _cluster_doc(cluster, positions: dict[int, int]) -> dict[str, Any]:
    return {
        "level": cluster.level,
        "pos": positions[id(cluster)],
        "members": list(cluster.members),
        "coordinator": cluster.coordinator,
        "children": [
            [member, _cluster_doc(child, positions)]
            for member, child in cluster.children.items()
        ],
    }


def restore_hierarchy(hierarchy, doc: dict[str, Any]) -> None:
    """Rebuild the cluster tree *in place* on the shared hierarchy."""
    root = _restore_cluster(doc["root"])
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


def _restore_cluster(cdoc) -> Cluster:
    children = {m: _restore_cluster(d) for m, d in cdoc["children"]}
    cluster = Cluster(
        level=cdoc["level"],
        members=list(cdoc["members"]),
        coordinator=cdoc["coordinator"],
        children=children,
    )
    for child in children.values():
        child.parent = cluster
    return cluster


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
def _cache_entry_to_doc(key, entry) -> dict[str, Any]:
    return {
        "fingerprint": key[0],
        "statistics_epoch": key[1],
        "topology_epoch": key[2],
        "plan": plan_to_doc(entry.plan),
        "placement": placement_to_doc(entry.plan, entry.placement),
        "stats": jsonable(dict(entry.stats)),
    }


def _capture_cache(cache, memo: FragmentMemo) -> dict[str, Any]:
    return {
        # Kept while no put, removal or hit moved the entries or their order.
        "entries": memo.section(cache, cache.revision, _cache_entries, cache, memo),
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "invalidations": cache.invalidations,
    }


def _cache_entries(cache, memo: FragmentMemo) -> Fragment:
    # A cached plan is frozen; its text also reads the key it is under.
    return _array(
        memo.text(entry, key, _cache_entry_to_doc, key, entry)
        for key, entry in cache.entries()  # LRU order
    )


def _restore_cache(cache, doc: dict[str, Any]) -> None:
    from repro.service.cache import CachedPlan

    def keyed(e):
        plan = plan_from_doc(e["plan"])
        entry = CachedPlan(
            plan=plan,
            placement=placement_from_doc(plan, e["placement"]),
            stats=dict(e["stats"]),
        )
        return (e["fingerprint"], e["statistics_epoch"], e["topology_epoch"]), entry

    cache.restore([keyed(e) for e in doc["entries"]])
    cache.hits = doc["hits"]
    cache.misses = doc["misses"]
    cache.evictions = doc["evictions"]
    cache.invalidations = doc["invalidations"]


# ----------------------------------------------------------------------
# Layer sections
# ----------------------------------------------------------------------
#: The sections this module encodes itself; the rest of a document is
#: the controller's own scalars and one section per layer.
_CORE = frozenset(
    "version scope admission cache state shards network rates hierarchy".split()
)


def check_version(doc: dict[str, Any]) -> None:
    """Refuse a state document another :data:`STATE_VERSION` wrote."""
    if doc.get("version") != STATE_VERSION:
        raise StateMismatchError(
            f"snapshot state version is {doc.get('version')!r}, "
            f"this build restores version {STATE_VERSION}"
        )


def restore_section(name: str, layer, section, optional: bool = False) -> None:
    """Hand ``section`` to ``layer.restore``, or refuse the mismatch.

    ``layer`` is ``None`` for a layer the controller was built without,
    and a layer whose pristine ``capture()`` is ``None`` keeps no state
    (the null fault injector, a hash routing policy): both count as off.
    A section for a layer that is off, or none for a layer that keeps
    state (unless ``optional``), means the recovery factory and the
    snapshot disagree about the layer configuration, and restoring
    anyway would silently drop that state.
    """
    stateful = layer is not None and layer.capture() is not None
    if section is not None and stateful:
        layer.restore(section)
    elif section is not None:
        raise StateMismatchError(
            f"snapshot has a {name!r} section, but the controller it is "
            "restored into was built without that layer"
        )
    elif stateful and not optional:
        raise StateMismatchError(
            f"snapshot has no {name!r} section for the armed "
            f"{type(layer).__name__}: it was written without that layer"
        )


def _restore_layers(controller, doc: dict[str, Any]) -> None:
    """Every armed layer from its section of ``doc``; a section nobody
    is armed for is refused."""
    armed = dict(controller.layers())
    sections = doc.keys() - _CORE - controller.capture().keys()
    for name in [*armed, *sorted(sections - armed.keys())]:
        # The resource manager got its section in PR 16: a file from
        # before has none, and the manager starts empty.
        old_file = name == "resources" and name not in doc
        restore_section(name, armed.get(name), doc.get(name), optional=old_file)


def _capture_shared(controller, memo: FragmentMemo) -> dict[str, Any]:
    hierarchy, rates = controller.hierarchy, controller.rates
    network = controller.network
    doc = {
        # Every mutator of the network bumps its version.
        "network": Fragment(memo.text(network, network.version, network.capture)),
        "rates": memo.section(
            rates, (rates.version, rates.reuse_rate_inflation), _fragment, rates.capture
        ),
        # Every edit of the cluster tree ends in ``reindex()``: a new revision.
        "hierarchy": None
        if hierarchy is None
        else memo.section(hierarchy, hierarchy.revision, _fragment, capture_hierarchy, hierarchy),
    }
    for name, fragment in doc.items():
        if fragment is not None:
            fragment.place = ("state", name)
    return doc


def _layer_section(layer, memo: FragmentMemo) -> Fragment:
    # Kept while the layer's revision stands; unplaced, so always inline.
    return memo.section(layer, layer.revision, _fragment, layer.capture)


def _place(doc: dict[str, Any], at: tuple) -> None:
    """Name the section fragments of the service document at ``at``."""
    doc["cache"]["entries"].place = (*at, "cache", "entries")
    for name, fragment in doc["state"].items():
        fragment.place = (*at, "state", name)


def _restore_shared(controller, doc: dict[str, Any]) -> None:
    controller.network.restore(doc["network"])
    controller.rates.restore(doc["rates"])
    if doc.get("hierarchy") is not None and controller.hierarchy is not None:
        restore_hierarchy(controller.hierarchy, doc["hierarchy"])


# ----------------------------------------------------------------------
# Service and fleet
# ----------------------------------------------------------------------
def capture_service(
    service, memo: FragmentMemo, include_shared: bool = True
) -> dict[str, Any]:
    """Capture one :class:`~repro.service.service.StreamQueryService`.

    The service writes its own scalars and every armed layer its own
    section; the plan cache and the deployment state are encoded here.
    ``include_shared`` embeds the shared network/rates/hierarchy; fleet
    capture writes them once at fleet scope instead.  The document
    holds fragments: :func:`~repro.durability.snapshot.splice_json`.
    """
    doc: dict[str, Any] = {
        "version": STATE_VERSION,
        **service.capture(),
        "admission": service.admission.capture(),
        "cache": _capture_cache(service.cache, memo),
        "state": capture_deployment_state(service.engine.state, memo),
        # Named even while off; a layer that got its section later
        # (``resources``) is absent while off.
        "resilience": None,
        "adaptivity": None,
        "faults": None,
    }
    for name, layer in service.layers():
        doc[name] = _layer_section(layer, memo)
    if include_shared:
        _place(doc, ("state",))
        doc.update(_capture_shared(service, memo))
    return doc


def restore_service(service, doc: dict[str, Any], include_shared: bool = True) -> None:
    """Restore a captured service document into a pristine service.

    The service must come from the same deterministic factory (same
    optimizer/config/seeds, same layers armed); only state is assigned.

    Raises:
        StateMismatchError: Another state version wrote ``doc``, or its
            layer sections do not fit the layers ``service`` arms.
    """
    check_version(doc)
    if include_shared:
        _restore_shared(service, doc)
    service.restore(doc)
    service.admission.restore(doc["admission"])
    _restore_cache(service.cache, doc["cache"])
    restore_deployment_state(service.engine.state, doc["state"])
    # Re-price the restored flows against the (restored) network.
    service.engine.state.recompute_costs(service.network.cost_matrix())
    _restore_layers(service, doc)
    # Ads indexes are derived state: base advertisements were recreated
    # by the factory; view/federation records rebuild from deployments.
    if service.ads is not None:
        service.ads.sync_from_state(service.engine.state)


def capture_fleet(fleet, memo: FragmentMemo) -> dict[str, Any]:
    """Capture a :class:`~repro.fleet.controller.FleetController`; like
    :func:`capture_service`, the document holds fragments."""
    doc: dict[str, Any] = {
        "version": STATE_VERSION,
        "scope": "fleet",
        **fleet.capture(),
        **_capture_shared(fleet, memo),
        "shards": [
            capture_service(shard, memo, include_shared=False)
            for shard in fleet.shards
        ],
        "scheduler": None,  # named even while off
        "federation": None,
    }
    for shard, shard_doc in enumerate(doc["shards"]):
        _place(shard_doc, ("state", "shards", shard))
    for name, layer in fleet.layers():
        # The federation's imports and published views are the long
        # lists of frozen items in a layer's section: it keeps their
        # text in the memo.
        doc[name] = layer.capture(memo) if name == "federation" else _layer_section(layer, memo)
    if doc["federation"] is not None:
        for shard, imports in enumerate(doc["federation"]["imports"]):
            imports.place = ("state", "federation", "imports", shard)
        doc["federation"]["published"].place = ("state", "federation", "published")
    return doc


def restore_fleet(fleet, doc: dict[str, Any]) -> None:
    """Restore a captured fleet document into a pristine fleet; raises
    :class:`StateMismatchError` as :func:`restore_service` does, at fleet
    scope or in any shard."""
    check_version(doc)
    _restore_shared(fleet, doc)
    fleet.restore(doc)
    for shard, shard_doc in zip(fleet.shards, doc["shards"]):
        restore_service(shard, shard_doc, include_shared=False)
    _restore_layers(fleet, doc)
