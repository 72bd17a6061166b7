"""The replay oracle: a service's live state must be rebuildable.

Applying the live deployments, in application order, to a fresh
:class:`DeploymentState` over the same cost matrix and rate model must
raise nothing and land on the same total cost and the same operator
set.  A migration that moves a reuse provider breaks it: the reuser
still points at the provider's operator, whose input flows left with the
old deployment, so ``apply`` refuses the reuser on replay.  Every path
that migrates or sheds calls :func:`assert_replays` after it commits.

Services only: a federated shard holds imported views a fresh state
lacks.
"""

from repro.query.deployment import DeploymentState


def assert_replays(service) -> None:
    """Replay ``service``'s live deployments into a fresh state and
    require the same total cost and the same operators.

    Operators compare as a set: a record two queries claim keeps the
    install position of whichever claimed it first.
    """
    state, rates = service.engine.state, service.rates
    fresh = DeploymentState(
        service.network.cost_matrix(),
        rates.rate,
        rates.source,
        reuse_inflation=rates.reuse_rate_inflation,
    )
    for deployment in state.deployments:
        fresh.apply(deployment)
    assert fresh.total_cost() == state.total_cost()
    assert set(fresh.operators()) == set(state.operators())
