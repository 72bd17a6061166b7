"""Round-trip tests for network/query/workload serialization."""

import json

import numpy as np
import pytest

import repro
from repro.serialization import (
    network_from_json,
    network_to_json,
    query_from_json,
    query_to_json,
    workload_from_json,
    workload_to_json,
)


class TestNetworkRoundTrip:
    def test_structure_preserved(self):
        net = repro.transit_stub_by_size(48, seed=171)
        restored = network_from_json(network_to_json(net))
        assert restored.num_nodes == net.num_nodes
        assert restored.num_links == net.num_links
        assert np.allclose(restored.cost_matrix(), net.cost_matrix())
        assert np.allclose(restored.delay_matrix(), net.delay_matrix())

    def test_kinds_preserved(self):
        net = repro.transit_stub_by_size(32, seed=172)
        restored = network_from_json(network_to_json(net))
        assert restored.nodes_of_kind("transit") == net.nodes_of_kind("transit")
        for link in net.links():
            assert restored.link(link.u, link.v).kind == link.kind

    def test_infinite_bandwidth_round_trips(self):
        net = repro.transit_stub_by_size(32, seed=173)
        restored = network_from_json(network_to_json(net))
        sample = restored.links()[0]
        assert sample.bandwidth == float("inf")

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="not a serialized network"):
            network_from_json('{"kind": "something"}')


class TestQueryRoundTrip:
    def test_full_query(self):
        q = repro.Query(
            "q",
            ["A", "B", "C"],
            sink=7,
            predicates=[
                repro.JoinPredicate("A", "B", 0.01, "x", "y"),
                repro.JoinPredicate("B", "C", 0.02),
            ],
            filters=[repro.Filter("A", "A.v > 1", 0.4)],
            projection=["A.v", "C.w"],
            window=1.25,
        )
        restored = query_from_json(query_to_json(q))
        assert restored == q
        assert restored.window == 1.25
        assert restored.projection == q.projection
        assert restored.view_signature() == q.view_signature()

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="not a serialized query"):
            query_from_json('{"kind": "x"}')


class TestWorkloadRoundTrip:
    @pytest.fixture(scope="class")
    def workload(self):
        net = repro.transit_stub_by_size(48, seed=174)
        return repro.generate_workload(
            net,
            repro.WorkloadParams(num_streams=6, num_queries=8, joins_per_query=(2, 3)),
            seed=175,
        )

    def test_self_contained_round_trip(self, workload):
        restored = workload_from_json(workload_to_json(workload))
        assert [q.name for q in restored] == [q.name for q in workload]
        assert restored.streams == workload.streams
        assert restored.selectivities == workload.selectivities
        assert restored.params == workload.params
        for a, b in zip(restored.queries, workload.queries):
            assert a == b
            assert a.window == b.window

    def test_equivalent_planning_results(self, workload):
        """Planning against the restored manifest reproduces costs."""
        restored = workload_from_json(workload_to_json(workload))
        for wl in (workload, restored):
            wl.rates = wl.rate_model()
        planner_a = repro.OptimalPlanner(workload.network, workload.rates)
        planner_b = repro.OptimalPlanner(restored.network, restored.rates)
        from repro.core.cost import deployment_cost

        for qa, qb in zip(workload.queries[:3], restored.queries[:3]):
            ca = deployment_cost(
                planner_a.plan(qa), workload.network.cost_matrix(), workload.rates
            )
            cb = deployment_cost(
                planner_b.plan(qb), restored.network.cost_matrix(), restored.rates
            )
            assert ca == pytest.approx(cb)

    def test_a_document_without_a_network_is_refused(self, workload):
        doc = json.loads(workload_to_json(workload))
        del doc["network"]
        with pytest.raises(ValueError, match="no embedded network"):
            workload_from_json(json.dumps(doc))

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="not a serialized workload"):
            workload_from_json('{"kind": "nope"}')


@pytest.mark.parametrize(
    "loader",
    [
        "network_from_json", "query_from_json", "workload_from_json",
        "trace_from_json", "explanation_from_json",
        "fault_plan_from_json", "telemetry_from_json",
    ],
)
@pytest.mark.parametrize("text", ["[1, 2]", "null"])
def test_a_document_that_is_no_object_is_refused_like_a_wrong_kind(loader, text):
    import repro.serialization

    with pytest.raises(ValueError, match=r"not a .*: kind=None"):
        getattr(repro.serialization, loader)(text)
