"""The closed loop end to end: drift in, migrations out, then quiet.

Drives a live :class:`StreamQueryService` through a step-drift timeline
and checks that the adaptive service re-optimizes onto a cheaper
placement than a static one, then settles without flapping.
"""

import pytest

import repro
from repro.adaptive import AdaptivityConfig
from repro.core.cost import RateModel, deployment_cost
from repro.errors import DeploymentError
from repro.resilience.faults import FaultInjector, FaultPlan, StaleStatistics
from repro.service import StreamQueryService
from repro.workload import drift_timeline
from tests.adaptive import record_steps
from tests.query.replay import assert_replays


CONFIG = AdaptivityConfig(
    alpha=0.5,
    hysteresis_ticks=2,
    publish_cooldown=2.0,
    query_cooldown=2.0,
    max_migrations_per_tick=4,
)


def build_service(adaptivity=None):
    net = repro.transit_stub_by_size(24, seed=7)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=4, joins_per_query=(1, 3)),
        seed=11,
    )
    rates = workload.rate_model()
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    optimizer = repro.TopDownOptimizer(hierarchy, rates)
    service = StreamQueryService(
        optimizer, net, rates, hierarchy=hierarchy, adaptivity=adaptivity
    )
    if adaptivity is not None:
        replay_after_each_migration(service)
    for query in workload.queries:
        service.submit(query)
    return service, workload, net


def replay_after_each_migration(service):
    """Every migration the loop commits must leave a state that replays."""
    migrator = service.adaptivity.migrator
    execute = migrator.execute

    def checked(*args, **kwargs):
        outcome = execute(*args, **kwargs)
        if outcome.committed:
            assert_replays(service)
        return outcome

    migrator.execute = checked


def drive(service, timeline, ticks):
    """Feed the timeline's true rates as observations, tick by tick."""
    reports = []
    for tick in range(1, ticks + 1):
        now = float(tick)
        if service.adaptivity is not None:
            service.adaptivity.observe_rates(timeline.rates_at(now))
        reports.append(service.tick(now))
    return reports


class TestClosedLoop:
    def test_step_drift_migrates_onto_a_cheaper_placement(self):
        adaptive, workload, net = build_service(adaptivity=CONFIG)
        static, _, _ = build_service(adaptivity=None)
        timeline = drift_timeline(
            workload.rate_model().streams, kind="step", at=3.0, factor=6.0
        )
        a_reports = drive(adaptive, timeline, ticks=20)
        drive(static, timeline, ticks=20)

        migrated = [name for r in a_reports for name in r.migrated]
        drifted = {s for r in a_reports for s in r.drift_streams}
        assert migrated, "the step drift must trigger at least one migration"
        assert drifted, "drift publications must surface in tick reports"

        # score both placements under the true post-step rates
        oracle = RateModel(timeline.streams_at(20.0))
        costs = net.cost_matrix()
        adaptive_cost = sum(
            deployment_cost(d, costs, oracle) for d in adaptive.engine.state.deployments
        )
        static_cost = sum(
            deployment_cost(d, costs, oracle) for d in static.engine.state.deployments
        )
        assert adaptive_cost < static_cost

        summary = adaptive.adaptivity.summary()
        assert summary["migrations_committed"] == len(migrated)
        assert summary["operators_moved"] >= len(migrated)
        assert summary["state_bytes_moved"] > 0

    def test_loop_settles_after_the_step(self):
        """Convergence: once the new rates are published and acted on,
        a constant signal must not cause further migrations."""
        service, workload, _ = build_service(adaptivity=CONFIG)
        timeline = drift_timeline(
            workload.rate_model().streams, kind="step", at=3.0, factor=6.0
        )
        reports = drive(service, timeline, ticks=30)
        migrations_per_tick = [len(r.migrated) for r in reports]
        assert sum(migrations_per_tick) >= 1
        assert sum(migrations_per_tick[15:]) == 0, "loop must not flap"
        # and the monitor stops publishing once its estimate is current
        assert sum(1 for r in reports[15:] if r.drift_streams) == 0

    def test_adaptive_metrics_flow_through_the_registry(self):
        service, workload, _ = build_service(adaptivity=CONFIG)
        timeline = drift_timeline(
            workload.rate_model().streams, kind="step", at=3.0, factor=6.0
        )
        drive(service, timeline, ticks=12)
        names = set(service.registry.names())
        assert "adaptive_migrations_total" in names
        assert "adaptive_drift_events_total" in names
        assert service.registry.get("adaptive_migrations_total").value >= 1

    def test_frozen_statistics_window_defers_publication(self):
        """A StaleStatistics fault must gate the monitor's publications
        -- drift detected inside the window only lands after it."""
        faults = FaultInjector(
            FaultPlan([StaleStatistics(time=0.0, duration=8.0)])
        )
        net = repro.transit_stub_by_size(24, seed=7)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=6, num_queries=4, joins_per_query=(1, 3)),
            seed=11,
        )
        rates = workload.rate_model()
        hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
        optimizer = repro.TopDownOptimizer(hierarchy, rates)
        service = StreamQueryService(
            optimizer,
            net,
            rates,
            hierarchy=hierarchy,
            faults=faults,
            adaptivity=CONFIG,
        )
        replay_after_each_migration(service)
        for query in workload.queries:
            service.submit(query)
        timeline = drift_timeline(rates.streams, kind="step", at=1.0, factor=6.0)
        reports = drive(service, timeline, ticks=14)
        in_window = [r for r in reports if r.time <= 8.0]
        after = [r for r in reports if r.time > 8.0]
        assert all(not r.drift_streams for r in in_window)
        assert any(r.drift_streams for r in after)


class TestRolledBackMigration:
    def test_a_rolled_back_query_is_retried_after_its_cooldown(self):
        """A candidate that fails to install once is evaluated again when
        its cooldown ends, and the retry commits; the ticks spent waiting
        for the cooldown evaluate nothing."""
        service, workload, _ = build_service(adaptivity=CONFIG)
        loop = service.adaptivity
        reports = record_steps(loop)
        execute, deploy = loop.migrator.execute, service.engine.deploy
        candidates, failed = set(), []

        def watched(engine, old, candidate, diff, **kwargs):
            candidates.add(id(candidate))
            return execute(engine, old, candidate, diff, **kwargs)

        def fails_once(deployment, time=None):
            if id(deployment) in candidates and not failed:
                failed.append(deployment.query.name)
                raise DeploymentError("node lost between planning and install")
            return deploy(deployment, time)

        loop.migrator.execute = watched
        service.engine.deploy = fails_once
        timeline = drift_timeline(
            workload.rate_model().streams, kind="step", at=3.0, factor=6.0
        )
        drive(service, timeline, ticks=20)

        (name,) = failed
        mine = [
            (r.time, m.committed) for r in reports for m in r.migrations if m.query == name
        ]
        assert [committed for _, committed in mine] == [False, True]
        (aborted_at, _), (retried_at, _) = mine
        assert retried_at == aborted_at + CONFIG.query_cooldown
        waiting = [r for r in reports if aborted_at < r.time < retried_at]
        assert waiting and all(r.evaluated == 0 for r in waiting)


class TestOlderSnapshot:
    def test_a_publication_log_restores_to_the_counts_it_held(self):
        """Before the monitor kept two counts its snapshot section held
        the publication log itself; restoring such a section counts the
        log, so the summary and the counters read what the new format
        carries."""
        service, workload, _ = build_service(adaptivity=CONFIG)
        reports = record_steps(service.adaptivity)
        timeline = drift_timeline(
            workload.rate_model().streams, kind="step", at=3.0, factor=6.0
        )
        drive(service, timeline, ticks=8)
        published = [r for r in reports if r.drift]
        assert len(published) == 2
        new = service.adaptivity.capture()
        old = {**new, "monitor": dict(new["monitor"])}
        del old["monitor"]["publications"], old["monitor"]["streams_published"]
        old["monitor"]["events"] = [
            {"time": r.time, "rates_version": version, "drifts": [vars(d) for d in r.drift]}
            for version, r in enumerate(published, start=1)
        ]

        def restored(doc):
            twin, _, _ = build_service(adaptivity=CONFIG)
            twin.adaptivity.restore(doc)
            counters = {
                name: twin.registry.get(name).value
                for name in ("adaptive_drift_events_total", "adaptive_streams_published_total")
            }
            return twin.adaptivity.summary(), counters

        summary, counters = restored(new)
        assert restored(old) == (summary, counters)
        assert summary["monitor"]["publications"] == 2
        assert counters["adaptive_streams_published_total"] == sum(
            len(r.drift) for r in published
        )


class TestNullDefault:
    def test_default_service_has_no_adaptivity(self):
        service, _, _ = build_service(adaptivity=None)
        assert service.adaptivity is None
        report = service.tick(1.0)
        assert report.migrated == [] and report.drift_streams == []
        assert not any(n.startswith("adaptive_") for n in service.registry.names())
