"""The instrumentation context: op counting, nesting, isolation, hook sites."""

import contextvars

import pytest

from repro.obs import CausalTracer, Tracer, causal_tracing, tracing
from repro.obs.tracer import (
    count,
    current_causal,
    current_tracer,
    incr,
    op_sink,
    span,
)
from repro.perf import OpProfiler, profiled


class TestOpProfiler:
    def test_counts_accumulate(self):
        prof = OpProfiler()
        prof.count("messages")
        prof.count("messages", 4)
        assert prof.ops == {"messages": 5}

    def test_inactive_by_default(self):
        assert op_sink() is None
        count("messages")  # a no-op with nothing installed

    def test_profiled_installs_and_uninstalls(self):
        with profiled() as prof:
            assert op_sink() is prof
            count("messages", 2)
        assert op_sink() is None
        assert prof.ops == {"messages": 2}

    def test_nesting_is_lifo(self):
        with profiled() as outer:
            with profiled() as inner:
                assert op_sink() is inner
                count("messages")
            assert op_sink() is outer
        assert inner.ops == {"messages": 1}
        assert outer.ops == {}

    def test_out_of_order_uninstall_raises(self):
        def misuse() -> None:
            a, b = profiled(), profiled()
            a.__enter__()
            b.__enter__()
            with pytest.raises(RuntimeError, match="nest"):
                a.__exit__(None, None, None)

        # The misuse leaves its installs behind in its own context only.
        contextvars.copy_context().run(misuse)
        assert op_sink() is None

    def test_uninstall_survives_failed_block(self):
        with pytest.raises(ValueError):
            with profiled():
                raise ValueError("boom")
        assert op_sink() is None


class TestContextIsolation:
    """An install belongs to the context that made it."""

    def test_sibling_context_profiler_counts_apart(self):
        def sibling() -> OpProfiler:
            with profiled() as theirs:
                count("messages", 5)
            return theirs

        with profiled() as ours:
            theirs = contextvars.copy_context().run(sibling)
            count("messages")
        assert ours.ops == {"messages": 1}
        assert theirs.ops == {"messages": 5}

    def test_sibling_context_tracer_records_apart(self):
        ours, theirs = Tracer(), Tracer()

        def sibling() -> None:
            with tracing(theirs), span("sibling"):
                incr("hits", 5)

        with tracing(ours), span("root") as root:
            contextvars.copy_context().run(sibling)
            incr("hits")
        assert [r.name for r in ours.roots] == ["root"]
        assert root.children == [] and root.counters == {"hits": 1}
        assert [r.name for r in theirs.roots] == ["sibling"]
        assert theirs.roots[0].counters == {"hits": 5}

    def test_sibling_context_causal_tracer_records_apart(self):
        from repro.adaptive.diff import MigrationDiff, OperatorMove
        from repro.adaptive.migrate import Migrator
        from repro.network.topology import transit_stub_by_size

        migrator = Migrator(transit_stub_by_size(16, seed=1))

        def send(src: int, dst: int) -> None:
            move = OperatorMove(None, src, dst, state_tuples=0.0, state_bytes=0.0)
            migrator.simulate_cutover(MigrationDiff("q", [move]), coordinator=src)

        ours, theirs = CausalTracer(), CausalTracer()

        def sibling() -> None:
            with causal_tracing(theirs):
                send(1, 2)

        with causal_tracing(ours):
            contextvars.copy_context().run(sibling)
            send(0, 5)
        assert {(h.tags["src"], h.tags["dst"]) for h in ours.hops} == {(0, 0), (0, 5), (5, 0)}
        assert {(h.tags["src"], h.tags["dst"]) for h in theirs.hops} == {(1, 1), (1, 2), (2, 1)}
        assert current_causal() is None

    def test_causal_installs_nest(self):
        outer, inner = CausalTracer(), CausalTracer()
        with causal_tracing(outer):
            with causal_tracing(inner):
                assert current_causal() is inner
            assert current_causal() is outer

        def misuse() -> None:
            a, b = causal_tracing(outer), causal_tracing(inner)
            a.__enter__()
            b.__enter__()
            with pytest.raises(RuntimeError, match="nest"):
                a.__exit__(None, None, None)

        contextvars.copy_context().run(misuse)
        assert current_causal() is None

    def test_tracer_and_profiler_are_separate_channels(self):
        tracer = Tracer()
        with tracing(tracer), profiled() as prof, span("root") as root:
            incr("plans_examined", 3)
            count("trees_enumerated", 2)
        assert root.counters == {"plans_examined": 3}
        assert prof.ops == {"trees_enumerated": 2}
        assert current_tracer() is None and op_sink() is None


class TestHookSites:
    """The instrumented call sites count into the active profiler."""

    @pytest.fixture(scope="class")
    def env(self):
        from repro.hierarchy import build_hierarchy
        from repro.network.topology import transit_stub_by_size
        from repro.workload import WorkloadParams, generate_workload

        net = transit_stub_by_size(24, seed=4)
        workload = generate_workload(
            net,
            WorkloadParams(num_streams=6, num_queries=3, joins_per_query=(2, 3)),
            seed=5,
        )
        hierarchy = build_hierarchy(net, max_cs=4, seed=0)
        return net, workload, workload.rate_model(), hierarchy

    def test_hierarchical_planning_counts(self, env):
        from repro.core import TopDownOptimizer

        net, workload, rates, hierarchy = env
        with profiled() as prof:
            TopDownOptimizer(hierarchy, rates).plan(workload.queries[0])
        assert prof.ops["trees_enumerated"] > 0
        assert prof.ops["placements"] > 0
        assert prof.ops["cost_evaluations"] > 0

    def test_optimal_planner_counts_dp_states(self, env):
        from repro.core import make_optimizer

        net, workload, rates, _ = env
        with profiled() as prof:
            make_optimizer("optimal", net, rates).plan(workload.queries[0])
        assert prof.ops["dp_subsets"] > 0
        assert prof.ops["cost_evaluations"] > 0

    def test_protocol_counts_messages(self, env):
        from repro.core import TopDownOptimizer
        from repro.runtime import simulate_deployment

        net, workload, rates, hierarchy = env
        deployment = TopDownOptimizer(hierarchy, rates).plan(workload.queries[0])
        with profiled() as prof:
            timeline = simulate_deployment(net, deployment)
        # the submission relay's hops are not op-counted
        chain = [deployment.query.sink, *deployment.stats["submit_chain"]]
        relays = sum(a != b for a, b in zip(chain, chain[1:]))
        assert prof.ops["messages"] == timeline.messages - relays

    def test_service_counts_ticks_and_cache_probes(self, env):
        from repro.core import TopDownOptimizer
        from repro.service import StreamQueryService

        net, workload, rates, hierarchy = env
        service = StreamQueryService(
            TopDownOptimizer(hierarchy, rates), net, rates, hierarchy=hierarchy
        )
        with profiled() as prof:
            for query in workload:
                service.submit(query, lifetime=5.0)
            for _ in range(3):
                service.tick()
        assert prof.ops["service_ticks"] == 3
        assert prof.ops["cache_probes"] == len(workload.queries)

    def test_counts_are_deterministic(self, env):
        from repro.core import TopDownOptimizer

        net, workload, rates, hierarchy = env

        def run():
            with profiled() as prof:
                TopDownOptimizer(hierarchy, rates).plan(workload.queries[1])
            return prof.ops

        assert run() == run()
