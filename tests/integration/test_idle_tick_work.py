"""What an idle tick and a submit of an all-layers service do, counted,
no clock.

With resilience, adaptivity, telemetry, durability and resources armed
together the control plane's own reporting must cost what changed, not
what exists: the scraper holds the handful of series whose instruments
were touched, node gauges are written when a node's ratio is re-derived,
and neither count depends on how many nodes the network has.  A submit's
layer work -- the deployments and operator records the resource ledger
examines, the breaker gauges the resilience layer syncs -- does not
depend on how many queries are live.
"""

import pytest

import repro
from repro.adaptive import AdaptivityConfig
from repro.durability import DurabilityConfig
from repro.obs.telemetry import TelemetryConfig
from repro.perf.profiler import profiled
from repro.resilience import ResilienceConfig
from repro.resources import ResourceConfig, uniform_capacities
from repro.service import AdmissionController, StreamQueryService
from tests.resources.reference_ledger import ratios

_LIVE = 200
_EXTRA = 8


def all_layers_service(
    num_nodes: int, state_dir, live: int = _LIVE
) -> tuple[StreamQueryService, list]:
    net = repro.transit_stub_by_size(num_nodes, seed=3)
    hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(
            num_streams=10, num_queries=live + _EXTRA, joins_per_query=(1, 3)
        ),
        seed=4,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    service = StreamQueryService(
        repro.TopDownOptimizer(hierarchy, rates, ads=ads),
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(budget=256),
        resilience=ResilienceConfig(),
        adaptivity=AdaptivityConfig(),
        telemetry=TelemetryConfig(),
        durability=DurabilityConfig(state_dir=str(state_dir), snapshot_interval=10),
        resources=ResourceConfig(
            capacities=uniform_capacities(net, cpu=1e9, memory=1e9, bandwidth=1e9)
        ),
    )
    queries = list(workload)
    for query in queries[:live]:
        service.submit(query)
    for _ in range(3):
        service.tick()
    assert service.engine.state.num_deployments == live
    return service, queries[live:]


@pytest.fixture(scope="module")
def planes(tmp_path_factory):
    built = {
        nodes: all_layers_service(nodes, tmp_path_factory.mktemp(f"state{nodes}"))
        for nodes in (64, 256)
    }
    yield built
    for service, _ in built.values():
        service.durability.journal.close()


def idle_tick_counts(service) -> tuple[int, int]:
    with profiled() as prof:
        service.tick()
    return prof.ops["telemetry_series_held"], prof.ops["node_gauges_written"]


def test_an_idle_tick_holds_a_handful_of_series_and_writes_no_node_gauge(planes):
    per_size = {}
    for nodes, (service, _) in planes.items():
        assert len(service.telemetry.store) > nodes  # one series per node gauge alone
        counts = [idle_tick_counts(service) for _ in range(20)]
        assert all(0 < held <= 16 and written == 0 for held, written in counts), counts
        per_size[nodes] = counts
    assert per_size[64] == per_size[256]


def test_a_submit_writes_the_gauges_of_the_nodes_it_loaded_or_freed(planes):
    service, extra = planes[256]
    state = service.engine.state
    wrote = 0
    for query in extra:
        # A retire beside the submit: the nodes its operators leave move too.
        victim = state.deployments[0]
        freed = {victim.placement[join] for join in victim.plan.joins()}
        with profiled() as prof:
            service.retire(victim.query.name)
            service.submit(query)
        deployment = state.deployment(query.name)
        loaded = {deployment.placement[join] for join in deployment.plan.joins()}
        assert prof.ops["node_gauges_written"] <= len(loaded | freed)
        wrote += prof.ops["node_gauges_written"]
        ledger = service.resources.ledger
        for node in service.network.nodes():
            gauge = service.registry.get(f"resource_node_utilization_n{node}")
            assert gauge.value == ratios(ledger).get(node, 0.0)
    assert wrote > 0


def test_a_submit_examines_what_it_changed_not_what_is_live(planes, tmp_path):
    few = all_layers_service(64, tmp_path, live=50)
    per_size = {}
    for service, extra in (few, planes[64]):
        state = service.engine.state
        counts = []
        for query in extra:
            cursor = state.feed_cursor()
            with profiled() as prof:
                service.submit(query)
            assert state.deployment(query.name) is not None
            # One name applied; the operator keys it created, each once.
            assert prof.ops["ledger_deployments_examined"] == 1
            assert prof.ops["ledger_records_examined"] == len(state.changes_since(cursor))
            # The one coordinator its plan went through.
            assert prof.ops["breaker_gauges_synced"] == 1
            counts.append(prof.ops["ledger_records_examined"])
        per_size[state.num_deployments] = counts
    few[0].durability.journal.close()
    assert set(per_size) == {50 + _EXTRA, _LIVE + _EXTRA}
    assert max(max(counts) for counts in per_size.values()) <= 16
