"""Network change through the adaptivity loop's topology trigger.

A link-cost change bumps the network version; the next service tick
re-prices the live flows and moves the topology epoch, and the loop then
re-evaluates every live query.  Every tick here must leave a state that
replays into a fresh one (:func:`tests.query.replay.assert_replays`).
"""

import pytest

import repro
from repro.adaptive import AdaptivityConfig
from repro.service import StreamQueryService
from tests.query.replay import assert_replays

CONFIG = AdaptivityConfig(query_cooldown=0.0, max_migrations_per_tick=8)

#: Congesting the hottest link x40 makes two queries move an operator;
#: halving every link cost moves nothing (examples/adaptive_runtime.py).
CONGESTED = (29, 30)
#: The same congestion gains only by moving q0-q2, each a reuse provider.
PINNED = (2, 3)


def build_service(world=CONGESTED, adaptivity=CONFIG):
    net_seed, workload_seed = world
    net = repro.transit_stub_by_size(32, seed=net_seed)
    hierarchy = repro.build_hierarchy(net, max_cs=8, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=8, num_queries=8, joins_per_query=(1, 4)),
        seed=workload_seed,
    )
    rates = workload.rate_model()
    service = StreamQueryService(
        repro.TopDownOptimizer(hierarchy, rates),
        net,
        rates,
        hierarchy=hierarchy,
        adaptivity=adaptivity,
    )
    for i, query in enumerate(workload):
        service.submit(query, time=float(i))
    return service


def congest(*services, factor=40.0):
    """Raise the first service's hottest link cost on every service."""
    hot = services[0].engine.hottest_links(1)[0]
    for service in services:
        service.network.set_link_cost(hot.u, hot.v, hot.cost * factor)


def tick(service, now):
    """One service tick; returns the loop's report for it."""
    service.tick(now)
    assert_replays(service)
    return service.adaptivity.reports[-1]


def settle(service, now):
    """Tick until a pass commits nothing; returns every report."""
    reports = [tick(service, now)]
    while reports[-1].committed:
        now += 1.0
        reports.append(tick(service, now))
    return reports


class TestLinkChange:
    def test_idle_tick_evaluates_nothing(self):
        service = build_service()
        report = tick(service, 10.0)
        assert service.topology_epoch == 0
        assert report.evaluated == 0 and report.migrations == []

    def test_congestion_evaluates_never_raises_cost(self):
        service = build_service()
        static = build_service(adaptivity=None)
        congest(static, service)
        static.tick(10.0)
        reports = settle(service, 10.0)
        assert service.topology_epoch == 1
        assert reports[0].evaluated == len(service.live_queries)
        migrations = [m for r in reports for m in r.committed]
        assert migrations, "this world's congestion must commit a migration"
        assert all(m.new_cost < m.old_cost for m in migrations)
        assert all(m.operators_moved >= 1 for m in migrations)
        # The static twin holds the old placements at the new prices.
        assert service.total_cost() < static.total_cost()
        saved = sum(m.old_cost - m.new_cost for m in migrations)
        assert service.total_cost() + saved == pytest.approx(static.total_cost())

    def test_next_tick_after_settling_migrates_nothing(self):
        service = build_service()
        congest(service)
        now = settle(service, 10.0)[-1].time
        cost = service.total_cost()
        report = tick(service, now + 1.0)
        assert report.evaluated == 0 and report.migrations == []
        assert service.total_cost() == cost

    def test_cheaper_network_repriced_without_migration(self):
        service = build_service()
        before = service.total_cost()
        for link in service.network.links():
            service.network.set_link_cost(*link.endpoints, link.cost * 0.5)
        report = tick(service, 10.0)
        assert service.topology_epoch == 1
        assert report.evaluated == len(service.live_queries)
        assert report.migrations == []
        assert service.total_cost() == pytest.approx(0.5 * before)

    def test_reuse_provider_is_never_migrated(self):
        service = build_service(PINNED)
        congest(service)
        state = service.engine.state
        placements = {d.query.name: dict(d.placement) for d in state.deployments}
        reports = settle(service, 10.0)
        pinned = [d for d in reports[0].decisions if d.reason.startswith("pinned")]
        assert [d.query for d in pinned] == ["q0", "q1", "q2"]
        for decision in pinned:
            # A re-plan would pay: only the pin holds the provider.
            shadow = state.clone()
            shadow.undeploy(decision.query)
            deployment = state.deployment(decision.query)
            candidate = service.optimizer.plan(deployment.query, shadow)
            assert shadow.apply(candidate) < 0.95 * decision.current_cost
            assert deployment.placement == placements[decision.query]
        assert not [m for r in reports for m in r.migrations]
