"""With ``durability=None`` the layer must change nothing.

Mirror of the resilience/adaptivity null-regression contract: a
default-constructed service and a durability-enabled one make identical
planning decisions; the default build declares no ``durability_``
instruments and takes no journal hooks at all.
"""

import repro
from repro.durability import DurabilityConfig
from repro.fleet import FleetController
from repro.service import AdmissionController, StreamQueryService, churn_trace


def build_service(state_dir=None, seed=47):
    net = repro.transit_stub_by_size(32, seed=seed)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(1, 3)),
        seed=seed + 1,
    )
    rates = workload.rate_model()
    ads = repro.AdvertisementIndex(hierarchy)
    optimizer = repro.TopDownOptimizer(hierarchy, rates, ads=ads)
    service = StreamQueryService(
        optimizer,
        net,
        rates,
        hierarchy=hierarchy,
        ads=ads,
        admission=AdmissionController(budget=6),
        durability=(
            None if state_dir is None else DurabilityConfig(state_dir=state_dir)
        ),
    )
    return service, workload


class TestServiceParity:
    def test_replay_is_identical_with_and_without_the_layer(self, tmp_path):
        plain, workload = build_service(state_dir=None)
        durable, _ = build_service(state_dir=tmp_path / "state")
        assert plain.durability is None
        assert durable.durability is not None

        trace = churn_trace(workload, lifetime=4.0, repeats=2)
        report_plain = plain.replay(list(trace))
        report_durable = durable.replay(list(trace))

        assert report_plain.decisions == report_durable.decisions
        assert report_plain.ticks == report_durable.ticks
        assert report_plain.summary == report_durable.summary
        assert plain.total_cost() == durable.total_cost()
        # and the durable run actually journaled the whole trace
        assert durable.durability.journal.lsn > 0

    def test_default_service_exposes_no_durability_metrics(self, tmp_path):
        plain, _ = build_service(state_dir=None)
        durable, _ = build_service(state_dir=tmp_path / "state")
        plain_names = set(plain.registry.names())
        durable_names = set(durable.registry.names())
        assert not {n for n in plain_names if n.startswith("durability_")}
        assert {n for n in durable_names if n.startswith("durability_")}
        assert plain_names == {
            n for n in durable_names if not n.startswith("durability_")
        }

    def test_default_service_has_no_hooks(self):
        plain, _ = build_service(state_dir=None)
        assert plain.durability is None
        assert plain._in_command is False

    def test_fleet_parity_and_shard_guard(self, tmp_path):
        import pytest

        net = repro.transit_stub_by_size(32, seed=3)
        hierarchy = repro.build_hierarchy(net, max_cs=6, seed=0)
        workload = repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=6, num_queries=6, joins_per_query=(1, 3)),
            seed=4,
        )
        rates = workload.rate_model()

        def build(durability):
            return FleetController(
                2, net, rates, hierarchy, policy="hash", budget=4,
                durability=durability,
            )

        plain = build(None)
        durable = build(DurabilityConfig(state_dir=tmp_path / "state"))
        for query in workload:
            plain.submit(query, lifetime=4.0)
            durable.submit(query, lifetime=4.0)
        for _ in range(6):
            plain.tick()
            durable.tick()
        assert plain.live_queries == durable.live_queries
        assert plain.total_cost() == durable.total_cost()
        assert plain.check_invariants() == durable.check_invariants() == []
        # Shards must never journal on their own.
        assert all(s.durability is None for s in durable.shards)
        with pytest.raises(repro.ReproError):
            FleetController(
                2, net, rates, hierarchy,
                durability=DurabilityConfig(state_dir=tmp_path / "s2"),
                service_kwargs={
                    "durability": DurabilityConfig(state_dir=tmp_path / "s3")
                },
            )
