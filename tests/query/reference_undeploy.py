"""The re-deriving ``undeploy`` that claims replaced: the test oracle.

``DeploymentState.undeploy`` releases exactly the records ``apply``
claimed.  Before claims it walked the plan again, derived every join's
and every reused leaf's signature, asked ``find_reusable`` which record
a reused leaf had bound to, and skipped every single-stream leaf -- so
the record ``apply`` installs for a *filtered* base stream shipped off
its source was never released.  :class:`ReferenceState` keeps that
walk, verbatim but for the signature lookups now taking signatures, so
``tests/query/test_claims.py`` can hold the claims to it.
"""

from repro.errors import UnknownQueryError
from repro.query.deployment import DeploymentState
from repro.query.plan import Join
from repro.query.query import ViewSignature


class ReferenceState(DeploymentState):
    """A deployment state whose ``undeploy`` re-derives what to release."""

    def undeploy(self, name: str) -> float:
        if name not in self._deployments:
            raise UnknownQueryError(f"query {name!r} is not deployed")
        self.revision += 1
        deployment = self._deployments.pop(name)
        self._claims.pop(name)  # unread here; kept so a re-apply starts clean
        self._flows.pop(name, None)
        reclaimed = 0.0
        for price in self._flow_costs.pop(name, ()):
            reclaimed += price
        query = deployment.query
        for subtree in deployment.plan.subtrees():
            sig_node: tuple[ViewSignature, int] | None = None
            if isinstance(subtree, Join):
                sig_node = (query.view_signature(subtree.sources), deployment.placement[subtree])
            elif not subtree.is_base_stream:
                node = deployment.placement[subtree]
                rec = self.find_reusable(query.view_signature(subtree.view), node)
                if rec is not None:
                    sig_node = (rec.signature, node)
                else:
                    sig_node = (query.view_signature(subtree.view), node)
            if sig_node and sig_node in self._operators:
                rec = self._operators[sig_node]
                rec.queries.discard(name)
                if not rec.queries:
                    self._drop(sig_node)
        return reclaimed

    def clone(self) -> "ReferenceState":
        other = super().clone()
        other.__class__ = ReferenceState
        return other
