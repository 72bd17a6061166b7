"""What an idle tick of an all-layers service does, counted, no clock.

With resilience, adaptivity, telemetry, durability and resources armed
together the control plane's own reporting must cost what changed, not
what exists: the scraper holds the handful of series whose instruments
were touched, node gauges are written when a node's ratio is re-derived,
and neither count depends on how many nodes the network has.
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

_LIVE = 200
_EXTRA = 8


def all_layers_service(num_nodes: int, state_dir) -> tuple[StreamQueryService, list]:
    net = repro.transit_stub_by_size(num_nodes, seed=3)
    hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(
            num_streams=10, num_queries=_LIVE + _EXTRA, joins_per_query=(1, 3)
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
    for query in queries[:_LIVE]:
        service.submit(query)
    for _ in range(3):
        service.tick()
    assert service.engine.state.num_deployments == _LIVE
    return service, queries[_LIVE:]


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
            assert gauge.value == ledger.utilization(node)
    assert wrote > 0
