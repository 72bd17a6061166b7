"""Trace propagation across protocols, and the byte-identical-off contract.

Two acceptance properties from the causal-tracing design:

* a data-plane run and a cutover each stay in deterministic causal
  trees -- a cutover is one tree rooted at ``migrate:<query>``;
* with tracing disabled (and the profiler uninstalled) the optimizer
  output and the simulator's message sequences are byte-identical to a
  build that never heard of either.
"""

import pytest

from repro.adaptive.diff import diff_deployments
from repro.adaptive.migrate import Migrator
from repro.core import TopDownOptimizer
from repro.core.cost import RateModel
from repro.hierarchy import build_hierarchy
from repro.network.topology import transit_stub_by_size
from repro.obs import CausalTracer, causal_tracing
from repro.perf import profiled
from repro.query.deployment import Deployment
from repro.query.plan import Join, Leaf
from repro.query.query import JoinPredicate, Query
from repro.query.stream import StreamSpec
from repro.runtime import simulate_deployment
from repro.runtime import dataplane
from repro.runtime.dataplane import run_dataplane
from repro.serialization import causal_trace_to_json
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
    return net, rates, hierarchy, workload, deployment


class TestDataPlanePropagation:
    def test_data_plane_traces_repeat(self, env, monkeypatch):
        monkeypatch.setattr(dataplane, "RATE_SCALE", 0.2)
        net, rates, _, _, deployment = env

        def run():
            tracer = CausalTracer()
            with causal_tracing(tracer):
                run_dataplane(net, deployment, rates, duration=5.0, seed=1)
            return tracer

        first = run()
        assert first.hops
        assert causal_trace_to_json(first) == causal_trace_to_json(run())


def make_migration_world():
    net = transit_stub_by_size(16, seed=1)
    rates = RateModel(
        {
            "A": StreamSpec("A", 0, rate=100.0),
            "B": StreamSpec("B", 1, rate=40.0),
            "C": StreamSpec("C", 2, rate=10.0),
        }
    )
    query = Query(
        "q",
        ["A", "B", "C"],
        sink=3,
        predicates=[JoinPredicate("A", "B", 0.01), JoinPredicate("B", "C", 0.05)],
    )

    def left_deep(nodes):
        a, b, c = Leaf.of("A"), Leaf.of("B"), Leaf.of("C")
        ab = Join(a, b)
        abc = Join(ab, c)
        return Deployment(
            query=query, plan=abc,
            placement={a: 0, b: 1, c: 2, ab: nodes[0], abc: nodes[1]},
        )

    diff = diff_deployments(left_deep((1, 2)), left_deep((0, 3)), rates)
    return net, query, diff


class TestMigrationPropagation:
    def test_cutover_forms_one_migrate_tree(self):
        net, query, diff = make_migration_world()
        tracer = CausalTracer()
        with causal_tracing(tracer):
            timeline = Migrator(net).simulate_cutover(diff, coordinator=query.sink)
        assert timeline.completed > timeline.started
        (tree,) = tracer.roots
        assert tree.name == "migrate:q"
        assert tree.tags["operators"] == 2
        kinds = {h.name for h in tree.walk()}
        assert {"PauseCommand", "StateChunk", "ResumeCommand"} <= kinds

    def test_traced_cutover_timeline_matches_untraced(self):
        net, query, diff = make_migration_world()
        untraced = Migrator(net).simulate_cutover(diff, coordinator=query.sink)
        with causal_tracing(CausalTracer()):
            traced = Migrator(net).simulate_cutover(diff, coordinator=query.sink)
        assert traced == untraced


class TestByteIdenticalWhenDisabled:
    """Tracing off + profiler off must change nothing observable."""

    def capture_messages(self, net, deployment, trace=None):
        """Protocol replay with recording actors; returns the exact
        (src, dst, message) delivery sequence, stamps included."""
        from repro.runtime.protocol import _Context, _ProtocolActor, QuerySubmit
        from repro.runtime.simulator import Simulator

        delivered = []

        class Recording(_ProtocolActor):
            def on_message(self, src, message):
                delivered.append((src, self.node_id, message))
                super().on_message(src, message)

        ctx = _Context(deployment, seconds_per_plan=2e-5)
        with causal_tracing(trace):  # None: the untraced build
            sim = Simulator(net)
        for node in net.nodes():
            sim.register(Recording(node, ctx))
        if trace is not None:
            trace.new_trace(f"deploy:{deployment.query.name}")
        sink = deployment.query.sink
        sim.schedule(
            0.0,
            lambda: sim.node(ctx.trace[0]["node"]).on_message(
                sink, QuerySubmit(deployment.query.name, sink)
            ),
        )
        sim.run()
        return delivered

    def test_message_sequences_identical_with_and_without_tracer(self, env):
        net, _, _, _, deployment = env
        plain = self.capture_messages(net, deployment)
        traced = self.capture_messages(net, deployment, trace=CausalTracer())
        # trace stamps are excluded from message equality, so the traced
        # run's delivery sequence compares equal element by element
        assert traced == plain
        # and the stamps really are there on the traced run
        assert any(
            getattr(m, "trace", None) is not None for _, _, m in traced
        )

    def test_timelines_identical_with_and_without_tracer(self, env):
        net, rates, _, _, deployment = env
        with causal_tracing(CausalTracer()):
            traced = simulate_deployment(net, deployment, rates=rates)
        assert simulate_deployment(net, deployment) == traced

    def test_optimizer_output_identical_with_and_without_profiler(self, env):
        net, rates, hierarchy, workload, _ = env
        query = workload.queries[1]
        plain = TopDownOptimizer(hierarchy, rates).plan(query)
        with profiled() as prof:
            profiled_run = TopDownOptimizer(hierarchy, rates).plan(query)
        assert prof.ops  # the profiler really was counting
        assert profiled_run.plan == plain.plan
        assert profiled_run.placement == plain.placement
        assert profiled_run.stats == plain.stats

    def test_unstamped_messages_compare_equal_to_stamped(self):
        from repro.runtime.messages import DeployCommand

        ctx = CausalTracer()
        root = ctx.new_trace("deploy:q")
        plain = DeployCommand("q", "op1")
        import dataclasses

        stamped = dataclasses.replace(plain, trace=root)
        assert stamped == plain
        assert hash(stamped) == hash(plain) if plain.__hash__ else True
        assert "trace" not in repr(stamped)
