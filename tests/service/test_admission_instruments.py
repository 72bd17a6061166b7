"""Admission queue depth and queue-wait time as registry instruments."""

import pytest

import repro
from repro.obs import MetricRegistry
from repro.service import AdmissionController, admission


@pytest.fixture(scope="module")
def instr_env():
    net = repro.transit_stub_by_size(32, seed=31)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(1, 3)),
        seed=32,
    )
    return net, hierarchy, workload, workload.rate_model()


def make_service(env, budget=2):
    net, hierarchy, workload, rates = env
    ads = repro.AdvertisementIndex(hierarchy)
    return repro.StreamQueryService(
        repro.TopDownOptimizer(hierarchy, rates, ads=ads),
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(budget=budget),
    )


class TestBindInstruments:
    def test_declares_gauge_and_histogram(self):
        controller = AdmissionController(budget=1)
        registry = MetricRegistry()
        controller.bind_instruments(registry)
        depth = registry.get("admission_queue_depth")
        wait = registry.get("admission_queue_wait_ticks")
        assert depth is not None and depth.kind == "gauge"
        assert wait is not None and wait.kind == "histogram"
        assert depth.value == 0.0

    def test_idempotent_rebind(self):
        controller = AdmissionController(budget=1)
        registry = MetricRegistry()
        controller.bind_instruments(registry)
        controller.bind_instruments(registry)  # must not raise on re-declare
        assert registry.names().count("admission_queue_depth") == 1

    def test_custom_buckets(self, monkeypatch):
        monkeypatch.setattr(admission, "QUEUE_WAIT_BUCKETS", (1.0, 10.0))
        controller = AdmissionController(budget=1)
        registry = MetricRegistry()
        controller.bind_instruments(registry)
        assert registry.get("admission_queue_wait_ticks").bounds == (1.0, 10.0)


class TestGaugeTracksDepth:
    def test_request_drain_withdraw(self, instr_env):
        _, _, workload, _ = instr_env
        controller = AdmissionController(budget=1)
        registry = MetricRegistry()
        controller.bind_instruments(registry)
        gauge = registry.get("admission_queue_depth")

        queries = workload.queries
        assert controller.request(queries[0], live_count=0, time=0.0).admitted
        assert gauge.value == 0.0
        controller.request(queries[1], live_count=1, time=0.0)
        controller.request(queries[2], live_count=1, time=0.0)
        assert gauge.value == 2.0 == float(controller.queue_depth)
        assert controller.withdraw(queries[2].name)
        assert gauge.value == 1.0
        controller.drain(live_count=0, time=2.0)
        assert gauge.value == 0.0


class TestWaitHistogram:
    def test_observes_virtual_wait(self, instr_env):
        _, _, workload, _ = instr_env
        controller = AdmissionController(budget=1)
        registry = MetricRegistry()
        controller.bind_instruments(registry)
        hist = registry.get("admission_queue_wait_ticks")

        queries = workload.queries
        controller.request(queries[0], live_count=0, time=0.0)  # admitted
        controller.request(queries[1], live_count=1, time=1.0)  # queued @1
        controller.request(queries[2], live_count=1, time=2.0)  # queued @2
        controller.drain(live_count=0, time=6.0)  # only one slot frees
        assert hist.count == 1
        assert hist.sum == 5.0  # waited ticks 1 -> 6
        controller.drain(live_count=0, time=9.0)
        assert hist.count == 2
        assert hist.sum == 5.0 + 7.0

    def test_withdrawn_query_never_observed(self, instr_env):
        _, _, workload, _ = instr_env
        controller = AdmissionController(budget=1)
        registry = MetricRegistry()
        controller.bind_instruments(registry)
        queries = workload.queries
        controller.request(queries[0], live_count=1, time=0.0)
        controller.withdraw(queries[0].name)
        controller.drain(live_count=0, time=5.0)
        assert registry.get("admission_queue_wait_ticks").count == 0


class TestServiceIntegration:
    def test_service_binds_admission_instruments(self, instr_env):
        service = make_service(instr_env, budget=1)
        names = service.registry.names()
        assert "admission_queue_depth" in names
        assert "admission_queue_wait_ticks" in names

    def test_lifecycle_shows_up_in_registry(self, instr_env):
        _, _, workload, _ = instr_env
        service = make_service(instr_env, budget=1)
        service.submit(workload.queries[0], lifetime=1.0)
        service.submit(workload.queries[1], lifetime=1.0)
        depth = service.registry.get("admission_queue_depth")
        assert depth.value == 1.0
        service.tick(2.0)  # retires the first, drains the second
        assert depth.value == 0.0
        wait = service.registry.get("admission_queue_wait_ticks")
        assert wait.count == 1
        assert wait.sum == 2.0

    def test_exposition_includes_queue_metrics(self, instr_env):
        service = make_service(instr_env)
        text = service.registry.exposition()
        assert "admission_queue_depth" in text
        assert "admission_queue_wait_ticks" in text
