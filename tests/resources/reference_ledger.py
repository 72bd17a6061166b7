"""The naive model the ledger's books are checked against.

:class:`ReferenceLedger` keeps nothing: every call walks every attached
:class:`~repro.query.deployment.DeploymentState` and prices every
operator again, so it is right by construction no matter how a
deployment changed -- and O(live) per call, which is why the shipped
:class:`~repro.resources.ledger.ResourceLedger` does not work this way.
It is a pure function of the attached states and rate models:

* every distinct ``(signature, node)`` join is charged the first time
  the walk (states in attach order, deployments in application order,
  joins in plan order) meets it, priced by that deployment;
* then every live operator record no deployment's plan walks anymore is
  charged from the ``origin`` its state recorded at install time, states
  in attach order and records in install order.
"""

from __future__ import annotations

from repro.resources.capacity import ZERO_LOAD, Load


class ReferenceLedger:
    """Derive-everything twin of :class:`repro.resources.ResourceLedger`."""

    def __init__(self) -> None:
        self._sources: list[tuple] = []

    def attach(self, state, footprint) -> None:
        self._sources.append((state, footprint))

    @classmethod
    def shadowing(cls, ledger) -> "ReferenceLedger":
        """A reference over exactly what ``ledger`` has attached."""
        reference = cls()
        for source in ledger._sources:
            reference.attach(source.state, source.footprint)
        return reference

    def operator_keys(self) -> set[tuple]:
        keys: set[tuple] = set()
        for state, _ in self._sources:
            keys.update(state.operators())
        return keys

    def node_loads(self) -> dict[int, Load]:
        loads: dict[int, Load] = {}
        seen: set[tuple] = set()
        for state, footprint in self._sources:
            for deployment in state.deployments:
                query = deployment.query
                for join in deployment.plan.joins():
                    node = deployment.placement[join]
                    key = (query.view_signature(join.sources), node)
                    if key in seen:
                        continue
                    seen.add(key)
                    load = footprint.join_load(
                        query, join.left.sources, join.right.sources
                    )
                    loads[node] = loads.get(node, ZERO_LOAD) + load
        for state, footprint in self._sources:
            for rec in state.operator_records():
                key = (rec.signature, rec.node)
                if key in seen or rec.origin is None:
                    continue
                seen.add(key)
                query, left, right = rec.origin
                loads[rec.node] = loads.get(rec.node, ZERO_LOAD) + footprint.join_load(
                    query, left, right
                )
        return loads

    def queries_on(self, node: int) -> list[str]:
        names: list[str] = []
        for state, _ in self._sources:
            for deployment in state.deployments:
                if any(
                    deployment.placement[j] == node
                    for j in deployment.plan.joins()
                ) and deployment.query.name not in names:
                    names.append(deployment.query.name)
        return names
