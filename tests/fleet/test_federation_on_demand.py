"""Imports on demand plan exactly what eager imports planned.

A shard copies a published view in only when it is about to plan a
query over the view's streams (:meth:`ReuseFederation.import_views`).
The retired behaviour -- every published view imported into every
shard right after each sync -- survives as
:class:`~tests.fleet.reference_federation.EagerFederation`; the same
scripts run under both must deploy the same plans (tree, placement,
cost, in the same order), reuse across shards as often, promote as
often and end at the same total cost, while the on-demand fleet copies
far fewer views.
"""

import random
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.adaptive import AdaptivityConfig
from repro.durability.journal import canonical_json
from repro.durability.state import placement_to_doc
from repro.fleet import Tenant
from repro.lab.runner import run_lab
from repro.lab.spec import load_scenario, scenario_candidates
from repro.query.deployment import DeploymentState
from repro.workload import drift_timeline

from tests.fleet.conftest import ByNamePolicy, build_fleet
from tests.fleet.reference_federation import eager_desired, eager_federation, imports_of

SCENARIO_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "scenarios"


def recorded(drive, eager: bool):
    """Run ``drive`` (which returns a fleet), recording every plan any
    deployment state accepted, in order."""
    plans = []
    apply = DeploymentState.apply

    def recording(state, deployment):
        cost = apply(state, deployment)
        doc = placement_to_doc(deployment.plan, deployment.placement)
        plans.append((deployment.query.name, canonical_json(doc), cost))
        return cost

    with mock.patch.object(DeploymentState, "apply", recording):
        with eager_federation() if eager else nullcontext():
            fleet = drive()
    return plans, fleet


def assert_same_decisions(drive):
    """``drive`` under both federations: the same plans and outcomes,
    fewer imports on demand.  Returns the on-demand fleet."""
    eager_plans, eager = recorded(drive, eager=True)
    plans, fleet = recorded(drive, eager=False)
    assert len(plans) == len(eager_plans)
    for ours, theirs in zip(plans, eager_plans):
        assert ours == theirs
    assert fleet.cross_shard_reuse_total == eager.cross_shard_reuse_total
    assert fleet.federation.promoted_total == eager.federation.promoted_total
    assert fleet.total_cost() == eager.total_cost()
    assert fleet.cross_shard_reuse_total > 0
    assert fleet.federation.imported_total < eager.federation.imported_total
    return fleet, eager


# ----------------------------------------------------------------------
# The benchmark's fleet shape, small
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def twin_world():
    """64 nodes, 12 streams and a pool of 2-4 join queries."""
    net = repro.transit_stub_by_size(64, seed=3)
    pool = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=12, num_queries=120, joins_per_query=(2, 4)),
        seed=4,
    )
    return net, repro.build_hierarchy(net, max_cs=6, seed=5), pool


def sharded_twins(world, seed: int, catalog: int = 32, rounds: int = 4):
    """4 hash shards, Bottom-Up, two tenants: ``catalog`` queries drawn
    by ``seed``, then ``rounds - 1`` rounds of their sink-shifted twins,
    4 submissions a tick, each living one round; half the last round
    is still live at the end."""
    net, hierarchy, pool = world
    queries = list(pool)
    random.Random(seed).shuffle(queries)
    queries = queries[:catalog]
    fleet = repro.FleetController(
        4,
        net,
        pool.rate_model(),
        hierarchy,
        algorithm="bottom-up",
        policy="hash",
        budget=4096,
        cache_capacity=4096,
        tenants=[Tenant("gold", weight=3.0), Tenant("bronze", weight=1.0)],
    )
    nodes = len(net.nodes())
    for i in range(catalog * rounds):
        if i % 4 == 0:
            fleet.tick()
        twin, original = divmod(i, catalog)
        query = queries[original]
        if twin:
            query = query.renamed(
                f"{query.name}__twin{twin}", sink=(query.sink + 5 * twin) % nodes
            )
        fleet.submit(query, lifetime=float(catalog // 4), tenant="bronze" if i % 4 == 3 else "gold")
    for _ in range(catalog // 8):  # half the last round expires
        fleet.tick()
    return fleet


@pytest.mark.parametrize("seed", [11, 23, 5])
def test_sharded_twins_plan_as_under_eager_import(twin_world, seed):
    fleet, eager = assert_same_decisions(lambda: sharded_twins(twin_world, seed))
    assert fleet.federation.promoted_total > 0
    assert fleet.federation.withdrawn_total < eager.federation.withdrawn_total


def test_fleet_reuse_scenario_plans_as_under_eager_import():
    spec = load_scenario(SCENARIO_DIR / "fleet_reuse.json")
    (candidate,) = [c for c in scenario_candidates(spec) if c.mode == "fleet"]
    assert_same_decisions(lambda: run_lab(spec, [candidate]).run(candidate.name).plane)


def test_a_shard_imports_only_what_a_query_it_plans_can_read(fleet_env):
    """Published views stay out of a shard until it plans a query over
    their streams; then exactly those come in."""
    _, _, workload, _ = fleet_env
    owner = workload.queries[0]
    streams = set(owner.sources)
    fleet = build_fleet(fleet_env, policy=ByNamePolicy({owner.name: 0}, default=1))
    federation = fleet.federation
    fleet.submit(owner)
    fleet.tick()
    published = eager_desired(federation, 1)
    assert published and not imports_of(federation, 1)
    other = next(
        q
        for q in workload.queries
        if not any(sig.sources <= set(q.sources) for sig, _ in published)
    )
    fleet.submit(other)  # reads none of them
    assert not imports_of(federation, 1)
    fleet.submit(owner.renamed("twin"))
    assert imports_of(federation, 1) == {
        key for key in eager_desired(federation, 1) if key[0].sources <= streams
    }


def adaptive_fleet(seed: int):
    """3 hash shards re-planning under a rate step: a live query's
    candidate plan may read views published after it was deployed."""
    net = repro.transit_stub_by_size(32, seed=seed)
    workload = repro.generate_workload(
        net, repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(2, 3)), seed=seed
    )
    rates = workload.rate_model()
    config = AdaptivityConfig(
        alpha=0.5, hysteresis_ticks=2, publish_cooldown=2.0, query_cooldown=2.0,
        max_migrations_per_tick=4,
    )
    fleet = repro.FleetController(
        3, net, rates, repro.build_hierarchy(net, max_cs=4, seed=0), policy="hash",
        service_kwargs={"adaptivity": config},
    )
    timeline = drift_timeline(rates.streams, kind="step", at=4.0, factor=6.0)
    for tick in range(1, 16):
        if tick <= len(workload.queries):
            query = workload.queries[tick - 1]
            fleet.submit(query.renamed(f"{query.name}@{tick}", sink=(query.sink + 3 * tick) % 32))
            fleet.submit(query)
        for shard in fleet.shards:
            shard.adaptivity.observe_rates(timeline.rates_at(float(tick)))
        fleet.tick(float(tick))
    return fleet


@pytest.mark.parametrize("seed", [3, 7])
def test_adaptive_replans_read_what_eager_import_had(seed):
    """An adaptive evaluation plans a candidate too: the shard imports
    what it can read first (candidate plans are recorded as the shadow
    state accepts them)."""
    fleet, _ = assert_same_decisions(lambda: adaptive_fleet(seed))
    assert sum(shard.adaptivity.totals["migrations_committed"] for shard in fleet.shards)
