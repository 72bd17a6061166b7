"""The query lifecycle service: caching, epochs, admission, churn."""

import pytest

import repro
from repro.service import (
    AdmissionController,
    AdmissionStatus,
    PlanCache,
    StreamQueryService,
    SubmitEvent,
    churn_trace,
    query_fingerprint,
)
from repro.service.cache import CachedPlan
from repro.query.plan import Leaf


class CountingOptimizer:
    """Optimizer wrapper that counts planning invocations."""

    name = "counting"

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def plan(self, query, state=None):
        self.calls += 1
        return self.inner.plan(query, state)


def build_service(budget=8, max_queue=None, max_per_tick=None, seed=31, cache_capacity=256):
    net = repro.transit_stub_by_size(32, seed=seed)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(1, 3)),
        seed=seed + 1,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = CountingOptimizer(repro.TopDownOptimizer(hierarchy, rates, ads=ads))
    service = StreamQueryService(
        optimizer,
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(
            budget=budget, max_queue=max_queue, max_per_tick=max_per_tick
        ),
        cache=PlanCache(capacity=cache_capacity),
    )
    return service, workload, optimizer


def renamed(query, name):
    return repro.Query(
        name,
        sources=sorted(query.sources, reverse=True),  # permuted on purpose
        sink=query.sink,
        predicates=query.predicates,
        filters=query.filters,
        window=query.window,
    )


class TestPlanCache:
    def test_identical_resubmission_skips_optimizer(self):
        service, workload, optimizer = build_service()
        query = workload.queries[0]
        service.submit(query)
        calls = optimizer.calls
        assert calls == 1

        decision = service.submit(renamed(query, "again"))
        assert decision.admitted
        assert optimizer.calls == calls  # cache hit: no second invocation
        assert service.cache.hits == 1

    def test_permuted_sources_share_the_entry(self):
        service, workload, _ = build_service()
        query = workload.queries[0]
        assert query_fingerprint(query) == query_fingerprint(renamed(query, "x"))

    def test_hit_deployment_is_bound_to_the_new_query(self):
        service, workload, _ = build_service()
        query = workload.queries[0]
        service.submit(query)
        service.submit(renamed(query, "again"))
        deployed = {d.query.name: d for d in service.engine.state.deployments}
        assert deployed["again"].query.name == "again"
        assert deployed["again"].plan == deployed[query.name].plan
        assert deployed["again"].stats["plan_cache"] == "hit"

    def test_distinct_queries_miss(self):
        service, workload, optimizer = build_service()
        service.submit(workload.queries[0])
        service.submit(workload.queries[1])
        assert optimizer.calls == 2

    def test_invalid_cached_plan_is_replanned(self):
        service, workload, optimizer = build_service()
        query = workload.queries[0]
        # poison the cache: a plan that reuses a view nobody deployed
        fingerprint = query_fingerprint(query)
        key = service.cache.key(
            fingerprint, service.statistics_epoch, service.topology_epoch
        )
        leaf = Leaf(frozenset(query.sources))
        service.cache.put(key, CachedPlan(plan=leaf, placement={leaf: 0}))
        decision = service.submit(query)
        assert decision.admitted
        assert optimizer.calls == 1  # fell through to a real plan
        assert service.cache.invalidations == 1


class TestEpochs:
    def test_statistics_change_forces_replan(self):
        service, workload, optimizer = build_service()
        query = workload.queries[0]
        service.submit(query)
        assert optimizer.calls == 1

        doubled = {
            name: repro.StreamSpec(name, spec.source, spec.rate * 2.0)
            for name, spec in service.rates.streams.items()
        }
        service.rates.update_streams(doubled)
        decision = service.submit(renamed(query, "after-stats"))
        assert decision.admitted
        assert service.statistics_epoch == 1
        assert optimizer.calls == 2  # epoch bump evicted the cached plan

    def test_ingest_statistics_bumps_epoch(self):
        from repro.workload.statistics import estimate_statistics

        service, workload, _ = build_service()
        estimated = estimate_statistics(
            service.rates.streams,
            {pair: 0.01 for pair in map(frozenset, [("S0", "S1")])},
            observation_time=50.0,
            seed=3,
        )
        assert service.ingest_statistics(estimated) == 1
        assert service.rates.version == 1

    def test_topology_change_forces_replan(self):
        service, workload, optimizer = build_service()
        query = workload.queries[0]
        service.submit(query)
        link = service.engine.hottest_links(1)[0]
        service.network.set_link_cost(link.u, link.v, link.cost * 10)

        decision = service.submit(renamed(query, "after-topo"))
        assert decision.admitted
        assert service.topology_epoch == 1
        assert optimizer.calls == 2

    def test_unchanged_epochs_stay_zero(self):
        service, workload, _ = build_service()
        for query in workload.queries[:3]:
            service.submit(query)
        assert service.statistics_epoch == 0
        assert service.topology_epoch == 0

    def test_update_streams_must_keep_catalog(self):
        service, workload, _ = build_service()
        with pytest.raises(ValueError):
            service.rates.update_streams({})


class TestAdmission:
    def test_budget_queues_and_drains(self):
        service, workload, _ = build_service(budget=2)
        decisions = [service.submit(q, lifetime=2.0) for q in workload.queries[:4]]
        statuses = [d.status for d in decisions]
        assert statuses[:2] == [AdmissionStatus.ADMITTED] * 2
        assert statuses[2:] == [AdmissionStatus.QUEUED] * 2
        assert len(service.live_queries) == 2

        report1 = service.tick(time=2.0)  # both live queries expire
        assert set(report1.retired) == {q.name for q in workload.queries[:2]}
        assert set(report1.deployed) == {q.name for q in workload.queries[2:4]}

    def test_bounded_queue_rejects(self):
        service, workload, _ = build_service(budget=1, max_queue=1)
        assert service.submit(workload.queries[0]).admitted
        assert service.submit(workload.queries[1]).status is AdmissionStatus.QUEUED
        decision = service.submit(workload.queries[2])
        assert decision.rejected
        assert "queue full" in decision.reason

    def test_per_tick_limit(self):
        service, workload, _ = build_service(budget=8, max_per_tick=1)
        service.submit(workload.queries[0], lifetime=1.0)
        for q in workload.queries[1:4]:
            # fill the queue behind a full-budget facade: queue directly
            service.admission.request(q, live_count=8)
        report = service.tick(time=5.0)
        assert len(report.deployed) == 1

    def test_duplicate_name_rejected(self):
        service, workload, _ = build_service()
        query = workload.queries[0]
        service.submit(query)
        decision = service.submit(query)
        assert decision.rejected
        assert "already deployed" in decision.reason

    def test_queued_duplicate_rejected(self):
        service, workload, _ = build_service(budget=1)
        service.submit(workload.queries[0])
        service.submit(workload.queries[1])
        decision = service.submit(workload.queries[1])
        assert decision.rejected
        assert "already queued" in decision.reason

    def test_unknown_stream_rejected(self):
        service, workload, _ = build_service()
        bad = repro.Query("bad", ["NOPE", "S0"], sink=0,
                          predicates=[repro.JoinPredicate("NOPE", "S0", 0.1)])
        decision = service.submit(bad)
        assert decision.rejected
        assert "unknown streams" in decision.reason

    def test_bad_sink_rejected(self):
        service, workload, _ = build_service()
        query = workload.queries[0]
        bad = repro.Query("bad", query.sources, sink=10_000,
                          predicates=query.predicates, window=query.window)
        decision = service.submit(bad)
        assert decision.rejected
        assert "not a network node" in decision.reason

    def test_non_positive_lifetime_rejected(self):
        service, workload, _ = build_service()
        assert service.submit(workload.queries[0], lifetime=0.0).rejected


class TestLifecycle:
    def test_lifetime_expiry_retires(self):
        service, workload, _ = build_service()
        service.submit(workload.queries[0], lifetime=3.0, time=0.0)
        assert service.is_live(workload.queries[0].name)
        service.tick(time=2.0)
        assert service.is_live(workload.queries[0].name)
        report = service.tick(time=3.0)
        assert report.retired == [workload.queries[0].name]
        assert not service.live_queries

    def test_explicit_retire_live(self):
        service, workload, _ = build_service()
        service.submit(workload.queries[0])
        assert service.retire(workload.queries[0].name) is True
        assert not service.live_queries
        assert service.total_cost() == 0.0

    def test_retire_queued(self):
        service, workload, _ = build_service(budget=1)
        service.submit(workload.queries[0])
        service.submit(workload.queries[1])
        assert service.retire(workload.queries[1].name) is False
        assert service.admission.queue_depth == 0

    def test_retire_unknown_raises(self):
        service, workload, _ = build_service()
        with pytest.raises(KeyError):
            service.retire("ghost")

    def test_ads_follow_retirement(self):
        service, workload, _ = build_service()
        query = workload.queries[0]
        service.submit(query)
        assert service.ads.views()  # operators advertised
        service.retire(query.name)
        assert not service.ads.views()

    def test_metrics_recorded(self):
        service, workload, _ = build_service()
        service.submit(workload.queries[0])
        service.tick()
        names = service.registry.names()
        for metric in (
            "service_queue_depth",
            "service_live_queries",
            "service_cache_hit_rate",
            "service_planning_seconds",
            "service_admitted_total",
            "service_rejected_total",
        ):
            assert metric in names
        assert service.registry.get("service_live_queries").value == 1.0


class TestReplay:
    def test_replay_drains_everything(self):
        service, workload, optimizer = build_service(budget=4)
        trace = churn_trace(workload, lifetime=3.0, arrivals_per_tick=2, repeats=2)
        report = service.replay(trace)
        s = report.summary
        assert s["submitted"] == 2 * len(workload)
        assert s["rejected"] == 0
        assert s["deployed_total"] == s["retired_total"] == s["submitted"]
        assert s["final_live"] == 0
        # second round is served from the cache
        assert s["cache_hits"] > 0
        assert s["cache_hit_rate"] > 0.3
        assert optimizer.calls == s["plans_computed"]
        assert s["plans_computed"] < s["submitted"]
        # A cache too small to hit (LRU-evicted before any resubmission
        # comes around again) re-plans every submission, and deploys the same.
        control, _, _ = build_service(budget=4, cache_capacity=1)
        c = control.replay(trace).summary
        assert c["cache_hits"] == 0 and c["plans_computed"] == c["deployed_total"]
        assert c["deployed_total"] == s["deployed_total"]

    def test_repeated_rounds_reuse_plans(self):
        service, workload, optimizer = build_service(budget=16)
        trace = churn_trace(workload, lifetime=None, arrivals_per_tick=4, repeats=1)
        service.replay(trace, drain=False)
        first_round = optimizer.calls
        assert first_round == len(workload)

    def test_events_sorted_by_time(self):
        service, workload, _ = build_service()
        events = [
            SubmitEvent(time=2.0, query=workload.queries[1], lifetime=1.0),
            SubmitEvent(time=1.0, query=workload.queries[0], lifetime=1.0),
        ]
        report = service.replay(events)
        assert [d.query for d in report.decisions] == [
            workload.queries[0].name,
            workload.queries[1].name,
        ]

    def test_churn_trace_validation(self):
        service, workload, _ = build_service()
        with pytest.raises(ValueError):
            churn_trace(workload, arrivals_per_tick=0)
        with pytest.raises(ValueError):
            churn_trace(workload, repeats=0)


class TestFailureIntegration:
    def test_requires_hierarchy(self):
        service, workload, _ = build_service()
        service.hierarchy = None
        with pytest.raises(ValueError):
            service.handle_node_failure(0)
