"""The naive model the ledger's books are checked against.

:class:`ReferenceLedger` keeps nothing: every call walks the
:class:`~repro.query.deployment.DeploymentState` it is over and prices
every operator again, so it is right by construction no matter how a
deployment changed -- and O(live) per call, which is why the shipped
:class:`~repro.resources.ledger.ResourceLedger` does not work this way.
It is a pure function of the state and its rate model:

* every distinct ``(signature, node)`` join is charged the first time
  the walk (deployments in application order, joins in plan order)
  meets it, priced by that deployment;
* then every live operator record no deployment's plan walks anymore is
  charged from the ``origin`` the state recorded at install time,
  records in install order;
* a node's charges are summed with ``math.fsum``, so no order of them
  moves a bit.

The utilization reports (``utilizations`` ... ``summary``) are the
ledger's own methods as they stood before it remembered ratios between
reads: every ratio of every node recomputed on every call, ``summary``
deriving them three times over.
"""

from __future__ import annotations

import math
from dataclasses import astuple

from repro.resources.capacity import UNBOUNDED, ZERO_LOAD, Load


class ReferenceLedger:
    """Derive-everything twin of :class:`repro.resources.ResourceLedger`."""

    def __init__(self, state, footprint) -> None:
        self.state = state
        self.footprint = footprint

    @classmethod
    def shadowing(cls, ledger) -> "ReferenceLedger":
        """A reference over the state ``ledger`` has attached."""
        return cls(ledger.state, ledger.footprint)

    def operator_keys(self) -> set[tuple]:
        return set(self.state.operators())

    def node_loads(self) -> dict[int, Load]:
        """Each node's operators summed exactly, dimension by dimension."""
        charged: dict[int, list[Load]] = {}
        seen: set[tuple] = set()
        for deployment in self.state.deployments:
            query = deployment.query
            for join in deployment.plan.joins():
                node = deployment.placement[join]
                key = (query.view_signature(join.sources), node)
                if key in seen:
                    continue
                seen.add(key)
                charged.setdefault(node, []).append(
                    self.footprint.join_load(query, join.left.sources, join.right.sources)
                )
        for rec in self.state.operator_records():
            key = (rec.signature, rec.node)
            if key in seen or rec.origin is None:
                continue
            seen.add(key)
            charged.setdefault(rec.node, []).append(self.footprint.join_load(*rec.origin))
        return {
            node: Load(*(math.fsum(dim) for dim in zip(*(astuple(l) for l in loads))))
            for node, loads in charged.items()
        }

    def queries_on(self, node: int) -> list[str]:
        names: list[str] = []
        for deployment in self.state.deployments:
            if any(
                deployment.placement[j] == node for j in deployment.plan.joins()
            ) and deployment.query.name not in names:
                names.append(deployment.query.name)
        return names

    # ------------------------------------------------------------------
    # Utilization reports, from scratch, against ``capacities``
    # ------------------------------------------------------------------
    def utilizations(self, capacities) -> dict[int, float]:
        loads = self.node_loads()
        nodes = set(capacities) | set(loads)
        return {
            node: loads.get(node, ZERO_LOAD).utilization(
                capacities.get(node, UNBOUNDED)
            )
            for node in sorted(nodes)
        }

    def max_utilization(self, capacities) -> float:
        utils = self.utilizations(capacities)
        return max(utils.values()) if utils else 0.0

    def violations(self, capacities, bound=1.0, extra=None) -> list[tuple[int, float]]:
        loads = self.node_loads()
        if extra:
            for node, load in extra.items():
                loads[node] = loads.get(node, ZERO_LOAD) + load
        out = [
            (node, util)
            for node in set(capacities) | set(loads)
            if (
                util := loads.get(node, ZERO_LOAD).utilization(
                    capacities.get(node, UNBOUNDED)
                )
            )
            > bound + 1e-9
        ]
        return sorted(out, key=lambda item: (-item[1], item[0]))

    def hot_nodes(self, capacities, k=3) -> list[tuple[int, float]]:
        ranked = sorted(
            self.utilizations(capacities).items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[: max(0, k)]

    def summary(self, capacities, top=5) -> dict:
        utils = self.utilizations(capacities)
        return {
            "nodes_tracked": len(utils),
            "constrained": any(not cap.unbounded for cap in capacities.values()),
            "max_utilization": max(utils.values()) if utils else 0.0,
            "mean_utilization": (
                sum(utils.values()) / len(utils) if utils else 0.0
            ),
            "hot_nodes": [
                {"node": node, "utilization": util}
                for node, util in self.hot_nodes(capacities, top)
            ],
            "overloaded": [
                {"node": node, "utilization": util}
                for node, util in self.violations(capacities)
            ],
        }


def plan_loads(footprint, query, plan) -> dict:
    """``{join: Load}`` for every join operator of ``plan``, each priced
    from scratch (leaves carry none)."""
    return {
        join: footprint.join_load(query, join.left.sources, join.right.sources)
        for join in plan.joins()
    }


def ratios(ledger) -> dict[int, float]:
    """The utilization ratio the ledger remembers for each node it tracks,
    in node order."""
    return dict(ledger.utilization_changes(None)[2])


def load_of(ledger, node: int) -> Load:
    """What the ledger's books charge ``node``."""
    return ledger.node_loads().get(node, ZERO_LOAD)
