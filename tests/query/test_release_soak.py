"""A churn soak: retiring every filtered query leaves nothing behind.

A filtered base stream shipped off its source is a view operator
(``DeploymentState.apply`` claims a record for it beside the joins it
claims).  ``undeploy`` releases exactly what ``apply`` claimed, so once
every query of a burst of distinct filtered queries has retired and a
tick has run, the operator set, each advertisement index and each
shard's federation exports are what they were before the burst -- on a
bare service and on a 2-shard fleet with federation.

Not gated, by design: the plan cache keeps one entry per distinct plan
up to its capacity, and a durability layer's ``FragmentMemo`` keeps the
text of what its last snapshot met, cached plans included.  Measured on
these soaks (``DurabilityConfig(snapshot_interval=1)`` for the memo):

* ``PlanCache``: 3 -> 27 entries on the bare service, 2 + 2 -> 11 + 12
  on the fleet's shards;
* ``FragmentMemo``: 27 -> 51 entries, the 24 new cached plans.

Before ``undeploy`` released claims, 23 of the burst's filtered base
records outlived it on the bare service (7 -> 30 operators, the memo
27 -> 74), advertised, and exported by the fleet's shards.
"""

import repro
from repro.query.stream import Filter

from tests.fleet.conftest import build_env, build_fleet

_BURST = 24


def filtered(query, serial):
    """``query`` with a filter no other query of the burst carries."""
    stream = sorted(query.sources)[serial % len(query.sources)]
    return repro.Query(
        f"{query.name}~f{serial}",
        query.sources,
        query.sink,
        query.predicates,
        [*query.filters, Filter(stream, f"x > {serial}", 0.5)],
        window=query.window,
    )


def build_service(env, **layers):
    net, hierarchy, _, rates = env
    ads = repro.AdvertisementIndex(hierarchy)
    return repro.StreamQueryService(
        repro.TopDownOptimizer(hierarchy, rates, ads=ads),
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=repro.AdmissionController(budget=512),
        **layers,
    )


def shipped_filters(states) -> int:
    """Live records of filtered base streams (single-source views)."""
    return sum(
        1 for state in states for sig, _ in state.operators() if sig.is_base and sig.filters
    )


def soak(controller, queries, states) -> int:
    """Submit the burst, tick, retire it all, tick; returns how many
    filtered base records the burst had live."""
    burst = [filtered(queries[serial % len(queries)], serial) for serial in range(_BURST)]
    for query in burst:
        assert controller.submit(query).admitted
    controller.tick()
    shipped = shipped_filters(states)
    for query in burst:
        assert controller.retire(query.name)
    controller.tick()
    return shipped


def test_a_bare_service_returns_to_its_pre_soak_operators_and_ads():
    env = build_env()
    queries = list(env[2])
    service = build_service(env)
    for query in queries[:3]:  # live throughout
        assert service.submit(query.renamed(f"{query.name}#keep")).admitted
    service.tick()
    state = service.engine.state
    before = (len(state.operators()), service.ads.views())

    assert soak(service, queries, [state]) > 0
    assert (len(state.operators()), service.ads.views()) == before
    assert service.ads.views() == state.advertised_views()
    assert shipped_filters([state]) == 0


def test_a_federated_fleet_returns_to_its_pre_soak_state_on_every_shard():
    env = build_env()
    queries = list(env[2])
    fleet = build_fleet(env, num_shards=2, federation=True)
    for query in queries[:4]:
        assert fleet.submit(query.renamed(f"{query.name}#keep")).admitted
    fleet.tick()
    federation = fleet.federation
    states = [shard.engine.state for shard in fleet.shards]

    def observed():
        return [
            (len(state.operators()), shard.ads.views(), federation.exports(index))
            for index, (shard, state) in enumerate(zip(fleet.shards, states))
        ]

    before = observed()
    assert soak(fleet, queries, states) > 0
    assert observed() == before
    assert shipped_filters(states) == 0
