"""Tenants, quotas and weighted-fair admission for the fleet.

The fleet control plane is multi-tenant: every submission carries a
:class:`Tenant`, and when the shards are collectively over budget the
fleet queues submissions in per-tenant backlogs drained by a
:class:`WeightedFairScheduler` -- a deficit weighted round-robin, so
under sustained overload each tenant's admit rate is proportional to its
configured weight (the fairness model of Benoit et al.'s concurrent
in-network applications, layered over the paper's planner).

Tenancy is strictly opt-in: a fleet built without tenants routes
submissions straight to shard admission, byte-identical to the bare
:class:`~repro.service.service.StreamQueryService` path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.errors import AdmissionError
from repro.query.query import Query
from repro.serialization import _query_from_dict, _query_to_dict


@dataclass(frozen=True)
class Tenant:
    """One tenant of the fleet.

    Attributes:
        name: Unique tenant id.
        weight: Share of admission capacity under overload (> 0); a
            weight-3 tenant drains three submissions for every one of a
            weight-1 tenant while both are backlogged.
        quota: Cap on the tenant's in-flight queries -- live plus queued
            anywhere in the fleet (``None`` = unlimited).
    """

    name: str
    weight: float = 1.0
    quota: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise AdmissionError("tenant name must be non-empty")
        if self.weight <= 0:
            raise AdmissionError("tenant weight must be > 0")
        if self.quota is not None and self.quota < 1:
            raise AdmissionError("tenant quota must be >= 1")


#: The tenant submissions fall under when no tenant is named.  A fleet
#: whose only tenant is the null tenant behaves exactly like a
#: tenant-free fleet (no quotas, single backlog, trivial fairness).
NULL_TENANT = Tenant("default")


class TenantDirectory:
    """Registry of the fleet's tenants."""

    def __init__(self, tenants: Iterable[Tenant] = ()) -> None:
        self._tenants: dict[str, Tenant] = {}
        for tenant in tenants:
            self.register(tenant)

    def register(self, tenant: Tenant) -> Tenant:
        """Add a tenant; names are unique."""
        if tenant.name in self._tenants:
            raise AdmissionError(f"tenant {tenant.name!r} already registered")
        self._tenants[tenant.name] = tenant
        return tenant

    def get(self, name: str) -> Tenant | None:
        """Look a tenant up by name (``None`` when unknown)."""
        return self._tenants.get(name)

    def __iter__(self) -> Iterator[Tenant]:
        return iter(self._tenants.values())

    def __len__(self) -> int:
        return len(self._tenants)


@dataclass
class PendingSubmit:
    """One submission parked in the fleet's weighted-fair backlog."""

    query: Query
    lifetime: float | None
    shard: int


class WeightedFairScheduler:
    """Deficit weighted round-robin over per-tenant FIFO backlogs.

    Every pick, each backlogged tenant earns credit equal to its weight;
    the richest tenant (ties broken by name for determinism) dequeues
    its oldest item and pays the round's total earned weight back.  Over
    a long overload the dequeue rates converge to the weight ratios, and
    an idle tenant accumulates no credit (no banked bursts).

    Items are :class:`PendingSubmit` records the scheduler only reads to
    snapshot them; :meth:`pick` takes an optional eligibility predicate
    so the caller can skip tenants whose head item cannot run yet (e.g.
    its target shard has no free budget) without charging them credit.
    """

    def __init__(self, directory: TenantDirectory) -> None:
        self.directory = directory
        self._queues: dict[str, deque] = {t.name: deque() for t in directory}
        self._credit: dict[str, float] = {t.name: 0.0 for t in directory}
        self.enqueued_total = 0
        self.picked_total = 0
        self.revision = 0  # moves with every change of what capture() writes

    # ------------------------------------------------------------------
    def enqueue(self, tenant: str, item) -> int:
        """Append an item to a tenant's backlog; return its position."""
        if tenant not in self._queues:
            raise AdmissionError(f"unknown tenant {tenant!r}")
        self._queues[tenant].append(item)
        self.enqueued_total += 1
        self.revision += 1
        return len(self._queues[tenant])

    def pick(self, eligible: Callable[[str, object], bool] | None = None):
        """Dequeue the next ``(tenant, item)`` under weighted fairness.

        Returns ``None`` when every backlog is empty or no head item is
        eligible.  Ineligible tenants neither earn nor pay credit this
        round, so being blocked on capacity does not distort fairness.
        """
        candidates = [
            name
            for name, queue in self._queues.items()
            if queue and (eligible is None or eligible(name, queue[0]))
        ]
        if not candidates:
            return None
        total = 0.0
        for name in candidates:
            weight = self.directory.get(name).weight
            self._credit[name] += weight
            total += weight
        best = max(candidates, key=lambda n: (self._credit[n], n))
        self._credit[best] -= total
        self.picked_total += 1
        self.revision += 1
        return best, self._queues[best].popleft()

    def withdraw(self, tenant: str, match: Callable[[object], bool]) -> object | None:
        """Remove the first backlog item satisfying ``match``."""
        queue = self._queues.get(tenant)
        if not queue:
            return None
        for i, item in enumerate(queue):
            if match(item):
                del queue[i]
                self.revision += 1
                return item
        return None

    # ------------------------------------------------------------------
    def backlog(self, tenant: str) -> int:
        """Items waiting for one tenant."""
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0

    @property
    def total_backlog(self) -> int:
        """Items waiting across all tenants."""
        return sum(len(q) for q in self._queues.values())

    # ------------------------------------------------------------------
    def capture(self) -> dict[str, Any]:
        """The scheduler's section of a ``repro.state`` snapshot:
        per-tenant backlogs in FIFO order, credit and counters."""
        return {
            "queues": [
                [tenant, [{**vars(p), "query": _query_to_dict(p.query)} for p in queue]]
                for tenant, queue in self._queues.items()
            ],
            "credit": dict(self._credit),
            "enqueued_total": self.enqueued_total,
            "picked_total": self.picked_total,
        }

    def restore(self, doc: dict[str, Any]) -> None:
        """Inverse of :meth:`capture`, into a pristine scheduler."""
        self._queues = {
            tenant: deque(
                PendingSubmit(**{**p, "query": _query_from_dict(p["query"])})
                for p in queue
            )
            for tenant, queue in doc["queues"]
        }
        self._credit = dict(doc["credit"])
        self.enqueued_total = doc["enqueued_total"]
        self.picked_total = doc["picked_total"]
