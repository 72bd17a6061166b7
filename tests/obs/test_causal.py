"""Causal tracer: hop spans, their ids, trees, exports, flow-cost accounting."""

import pytest

from repro.core import TopDownOptimizer
from repro.core.cost import deployment_cost
from repro.hierarchy import build_hierarchy
from repro.network.topology import transit_stub_by_size
from repro.obs import CausalTracer, Span, causal_tracing
from repro.runtime import simulate_deployment
from repro.runtime.messages import DeployCommand
from repro.runtime.simulator import Simulator, SimNode
from repro.serialization import (
    causal_trace_from_json,
    causal_trace_to_json,
    chrome_trace_to_json,
)
from repro.workload import WorkloadParams, generate_workload


@pytest.fixture(scope="module")
def env():
    net = transit_stub_by_size(32, seed=2)
    workload = generate_workload(
        net,
        WorkloadParams(num_streams=8, num_queries=6, joins_per_query=(2, 4)),
        seed=3,
    )
    rates = workload.rate_model()
    hierarchy = build_hierarchy(net, max_cs=4, seed=0)
    deployment = TopDownOptimizer(hierarchy, rates).plan(workload.queries[0])
    return net, rates, deployment


class TestSpanIds:
    def test_child_links_and_counts_hops(self):
        tracer = CausalTracer()
        root = tracer.new_trace("deploy:q")
        child = tracer.record_hop("QuerySubmit", 0, 1, time=0.0)
        grandchild = tracer.record_hop("PlanRequest", 1, 2, time=0.0, parent=child)
        assert child.trace_id == grandchild.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.tags["hop"] == 1
        assert grandchild.parent_id == child.span_id
        assert grandchild.tags["hop"] == 2
        assert root.children == [child] and child.children == [grandchild]

    def test_ids_stay_out_of_the_span_dict(self):
        root = CausalTracer().new_trace("deploy:q")
        assert root.parent_id is None and root.span_id
        for span in (root, Span("nominal")):
            assert not {"trace_id", "span_id", "parent_id"} & set(span.to_dict())


class TestCausalTracerUnits:
    def test_ids_are_deterministic(self):
        def collect():
            tracer = CausalTracer()
            tracer.new_trace("deploy:q", node=3)
            tracer.record_hop("QuerySubmit", 3, 5, time=0.0)
            tracer.record_hop("PlanRequest", 5, 7, time=1.0)
            return [h.span_id for h in tracer.hops]

        assert collect() == collect()

    def test_record_hop_parents_under_active_context(self):
        tracer = CausalTracer()
        root = tracer.new_trace("deploy:q", node=3, est_cost=12.5)
        hop = tracer.record_hop("QuerySubmit", 3, 5, time=0.0, link_delay=0.01)
        assert hop.trace_id == root.trace_id
        assert hop.parent_id == root.span_id
        assert hop.end == pytest.approx(0.01)
        assert tracer.roots == [root]

    def test_record_hop_without_context_opens_a_root(self):
        tracer = CausalTracer()
        hop = tracer.record_hop("DeployCommand", 1, 2, time=0.0)
        assert hop.parent_id is None
        assert tracer.roots == [hop]

    def test_span_tree_carries_hop_tags(self):
        tracer = CausalTracer()
        tracer.new_trace("deploy:q", node=3)
        tracer.record_hop("QuerySubmit", 3, 5, time=0.0, link_cost=4.0)
        (tree,) = tracer.roots
        assert tree.name == "deploy:q"
        (child,) = tree.children
        assert child.name == "QuerySubmit"
        assert child.tags["src"] == 3
        assert child.tags["dst"] == 5
        assert child.tags["link_cost"] == 4.0
        assert tree.render()

    def test_nothing_installed_records_nothing(self):
        net = transit_stub_by_size(16, seed=1)
        tracer = CausalTracer()
        with causal_tracing(tracer):
            pass
        # A simulator built after the install ended is untraced.
        received = []

        class Sink(SimNode):
            def on_message(self, src, message):
                received.append(message)

        sim = Simulator(net)
        for node in net.nodes():
            sim.register(Sink(node))
        sim.send(0, 5, DeployCommand("q", "op1"))
        sim.run()
        assert received == [DeployCommand("q", "op1")]
        assert received[0].trace is None
        assert tracer.hops == [] and tracer.roots == []


class TestSimulatorIntegration:
    def make_sim(self, net, tracer):
        with causal_tracing(tracer):
            sim = Simulator(net)

        class Sink(SimNode):
            def on_message(self, src, message):
                pass

        for node in net.nodes():
            sim.register(Sink(node))
        return sim

    def test_on_send_stamps_messages_and_records_cost(self):
        net = transit_stub_by_size(16, seed=1)
        tracer = CausalTracer()
        sim = self.make_sim(net, tracer)
        root = tracer.new_trace("deploy:q", node=0)
        sim.send(0, 5, DeployCommand("q", "op1"))
        sim.run()
        (root_hop, hop) = tracer.hops
        assert hop.name == "DeployCommand"
        assert hop.trace_id == root.trace_id
        assert hop.tags["link_cost"] == pytest.approx(float(net.cost_matrix()[0, 5]))
        assert hop.counters["link_delay"] == pytest.approx(net.path_delay(0, 5))
        assert hop.counters["deliveries"] == 1
        assert hop.end == pytest.approx(hop.start + hop.counters["link_delay"])

    def test_identical_sends_are_sibling_hops_under_the_cause(self):
        net = transit_stub_by_size(16, seed=1)
        tracer = CausalTracer()
        sim = self.make_sim(net, tracer)
        root = tracer.new_trace("deploy:q", node=0)
        sim.send(0, 5, DeployCommand("q", "op1"))
        sim.send(0, 5, DeployCommand("q", "op1"))  # same payload, new message
        sim.run()
        _, first, second = tracer.hops
        assert first.parent_id == second.parent_id == root.span_id
        assert root.children == [first, second]
        assert first.counters["deliveries"] == second.counters["deliveries"] == 1


class TestFlowAccounting:
    def test_flow_hops_sum_to_communication_cost(self, env):
        net, rates, deployment = env
        tracer = CausalTracer()
        with causal_tracing(tracer):
            simulate_deployment(net, deployment, rates=rates)
        (root,) = tracer.roots
        expected = deployment_cost(deployment, net.cost_matrix(), rates)
        assert tracer.flow_cost(root.walk()) == pytest.approx(expected, rel=0, abs=1e-9)

    def test_every_hop_lands_in_the_single_deploy_tree(self, env):
        net, rates, deployment = env
        tracer = CausalTracer()
        with causal_tracing(tracer):
            timeline = simulate_deployment(net, deployment, rates=rates)
        (tree,) = tracer.roots
        assert all(h.trace_id == tree.trace_id for h in tracer.hops)
        assert tree.name == f"deploy:{deployment.query.name}"
        # the whole tree hangs off one root: every span is reachable
        assert sum(1 for _ in tree.walk()) == len(tracer.hops)
        # every delivery the simulator counted is on some non-flow hop
        # (the synthetic root contributes none, flow hops are costed
        # edges, relays count one each)
        delivered = sum(
            h.counters.get("deliveries", 0) for h in tracer.hops if not h.tags.get("flow")
        )
        assert delivered == timeline.messages


class TestExports:
    def test_json_envelope_round_trips(self, env):
        net, rates, deployment = env
        tracer = CausalTracer()
        with causal_tracing(tracer):
            simulate_deployment(net, deployment, rates=rates)
        doc = causal_trace_from_json(causal_trace_to_json(tracer))
        assert doc["kind"] == "repro.causal_trace"
        (trace,) = doc["traces"]
        assert trace["flow_cost"] == pytest.approx(tracer.flow_cost(tracer.hops))
        assert len(trace["hops"]) == len(tracer.hops)
        assert doc["summary"]["hops"] == len(tracer.hops)

    def test_chrome_trace_events(self, env):
        import json

        net, rates, deployment = env
        tracer = CausalTracer()
        with causal_tracing(tracer):
            simulate_deployment(net, deployment, rates=rates)
        events = json.loads(chrome_trace_to_json(tracer))
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1  # one process per trace
        assert meta[0]["args"]["name"] == tracer.roots[0].trace_id
        assert len(spans) == len(tracer.hops)
        for event in spans:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["cat"] in ("causal", "flow")
